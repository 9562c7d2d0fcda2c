"""Hypothesis generation and the differentiable affinity provider.

Candidates from consecutive frames are connected when they are spatially
close (relative to box size) and similar in size; a candidate that finds no
partner retries with progressively relaxed distance thresholds.  Valid
hypothesis trajectories are all index tuples whose consecutive pairs pass
the gate; virtual candidates connect unconditionally, but no hypothesis
passes through the anchor frame's virtual, which has no geometry.

The affinity of a valid trajectory is a two-level differentiable score on
precomputed descriptors and box geometry:

* per consecutive pair, an appearance-plus-position score: the descriptor
  inner product attenuated by a Gaussian in center distance, a bare
  position Gaussian, and a box-size similarity, each with a learnable
  weight;
* per trajectory: a constant-velocity consistency score weighted by
  size-change smoothness, with its own learnable weight.

The provider returns the solver's pairwise tensor itself: the hypotheses
with one affinity each, its only non-zero entries.  Beside it come the
per-hypothesis statistics that map a loss gradient on those values back to
parameter gradients.  The statistics do not depend on the parameters: one
scoring step turns them into the values, and :func:`rescore_affinity`
reruns that step alone under new parameters.  Every term is plain array
code over the hypotheses (ufuncs, einsum row dots), the same operations its
backward pass uses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import kvtext
from .errors import ContractError, InputValidationError
from .solver import HypothesisTensor
from .types import (
    AssociationBatch,
    FrameArrays,
    _clipped_square,
    descriptor_similarity,
)


@dataclass(frozen=True)
class ConnectionGateConfig:
    """Adaptive connection gate between candidates of consecutive frames.

    The distance threshold is ``base_distance_factor`` times the larger of
    the two box diagonals; after r relaxations it grows by
    ``relaxation_factor ** r``, which must stay finite up to
    ``max_relaxations``.  Size bounds are not relaxed.
    """

    base_distance_factor: float = 1.0
    size_ratio_bounds: tuple[float, float] = (0.5, 2.0)
    relaxation_factor: float = 2.0
    max_relaxations: int = 2

    def __post_init__(self):
        low, high = self.size_ratio_bounds
        # written so that NaN fails every bound
        if not 0.0 < self.base_distance_factor < np.inf:
            raise ContractError("base_distance_factor must be positive and finite")
        if not (0 < low < 1 < high):
            raise ContractError(f"size ratio bounds must straddle 1, got {low}, {high}")
        if not 1.0 < self.relaxation_factor < np.inf:
            raise ContractError("relaxation_factor must exceed 1 and be finite")
        if self.max_relaxations < 0:
            raise ContractError("max_relaxations must be >= 0")
        if not self.widest_distance_factor < np.inf:
            raise ContractError(
                "base_distance_factor * relaxation_factor ** max_relaxations "
                "must be finite")

    @cached_property
    def widest_distance_factor(self) -> float:
        """The last relaxed level's distance factor; inf past the floats."""
        try:
            return (self.base_distance_factor
                    * self.relaxation_factor ** self.max_relaxations)
        except OverflowError:
            return np.inf


@dataclass(frozen=True)
class AffinityProviderParams:
    """Learnable weights of the affinity provider.

    ``position_scale`` (pixels) sets both the pairwise Gaussian width and
    the velocity-consistency decay; it is kept strictly positive by
    projection after each training step.  The four weights must be finite
    and nonnegative, so the affinity stays a sum of nonnegative terms.
    """

    motion_weight: float = 1.0
    position_scale: float = 30.0
    size_weight: float = 0.5
    appearance_weight: float = 1.0
    long_term_weight: float = 1.0

    FIELD_NAMES = ("motion_weight", "position_scale", "size_weight",
                   "appearance_weight", "long_term_weight")

    def __post_init__(self):
        # written so that NaN fails every bound
        if not 0.0 < self.position_scale < np.inf:
            raise ContractError("position_scale must be positive and finite")
        for name in ("motion_weight", "size_weight", "appearance_weight",
                     "long_term_weight"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ContractError(f"{name} must be nonnegative and finite")

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in self.FIELD_NAMES])

    @classmethod
    def from_vector(cls, vec) -> "AffinityProviderParams":
        return cls(**{name: float(v) for name, v in zip(cls.FIELD_NAMES, vec)})


@dataclass
class AffinityTensorBundle:
    """The solver's tensor plus what the provider's backward pass needs.

    ``tensor`` holds the hypotheses, one affinity per hypothesis and the
    frame sizes (:class:`mdatrack.solver.HypothesisTensor`); the columns
    below are per-hypothesis statistics in the same order.
    """

    tensor: HypothesisTensor
    params: AffinityProviderParams
    appearance_edges: np.ndarray          # (H, K) similarity per pair
    squared_distances: np.ndarray         # (H, K) per consecutive pair
    size_sum: np.ndarray                  # (H,)
    acceleration: np.ndarray              # (H,)
    size_smoothness: np.ndarray           # (H,)
    virtual_scale: np.ndarray             # (H,) alpha ** (#virtuals)


def save_params(params: AffinityProviderParams, path: str | Path) -> None:
    kvtext.save_kv(
        {name: getattr(params, name) for name in params.FIELD_NAMES}, path)


def load_params(path: str | Path) -> AffinityProviderParams:
    raw = kvtext.load_kv(path)
    names = AffinityProviderParams.FIELD_NAMES
    values = kvtext.take(raw, dict.fromkeys(names, float))
    missing = [n for n in names if n not in values]
    if missing or raw:
        raise ContractError(f"parameter file: missing keys {missing}, "
                            f"unknown keys {sorted(raw)}")
    return AffinityProviderParams(**values)


# ---------------------------------------------------------------------------
# Connection gate and hypothesis generation
# ---------------------------------------------------------------------------

def _pair_mask(prev: FrameArrays, nxt: FrameArrays,
               gate: ConnectionGateConfig) -> np.ndarray:
    """(I_prev, I_next) connection mask between two consecutive frames.

    Virtual rows and columns connect unconditionally.  Each real row left
    without a partner, then each real column still without one, retries at
    successively relaxed distance factors and keeps every partner found at
    the first level that finds any (:func:`_relax`).  The relaxed masks are
    built only when some line is left without a partner, so never while
    tracking, where every frame ends in a virtual slot that partners every
    line: only training windows, which have none, relax.
    """
    dist = np.hypot(prev.centers[:, None, 0] - nxt.centers[None, :, 0],
                    prev.centers[:, None, 1] - nxt.centers[None, :, 1])
    reach = np.maximum(prev.diagonals[:, None], nxt.diagonals[None, :])
    low, high = gate.size_ratio_bounds
    width = nxt.boxes[None, :, 2] / prev.boxes[:, None, 2]
    height = nxt.boxes[None, :, 3] / prev.boxes[:, None, 3]
    size_ok = ((low <= width) & (width <= high)
               & (low <= height) & (height <= high))
    # a NaN distance (a virtual row) never passes
    mask = size_ok & (dist <= gate.base_distance_factor * reach)
    mask |= prev.is_virtual[:, None] | nxt.is_virtual[None, :]

    if mask.any(axis=1).all() and mask.any(axis=0).all():
        return mask
    # the columns relax on the transposes, views that write through to mask
    _relax(mask, size_ok, dist, reach, gate)
    _relax(mask.T, size_ok.T, dist.T, reach.T, gate)
    return mask


def _relax(mask: np.ndarray, size_ok: np.ndarray, dist: np.ndarray,
           reach: np.ndarray, gate: ConnectionGateConfig) -> None:
    """Give each row of ``mask`` without a partner every partner of the
    first relaxed level that has any, in place.  Only rows that the widest
    level reaches take part, and the levels are built one at a time until
    every such row has its partners."""
    widest = size_ok & (dist <= gate.widest_distance_factor * reach)
    rows = ~mask.any(axis=1) & widest.any(axis=1)
    for r in range(1, gate.max_relaxations + 1):
        if not rows.any():
            return
        level = size_ok & (dist <= gate.base_distance_factor
                           * gate.relaxation_factor ** r * reach)
        hit = rows & level.any(axis=1)
        mask[hit] |= level[hit]
        rows &= ~hit


def generate_hypotheses(batch: AssociationBatch,
                        gate: ConnectionGateConfig) -> np.ndarray:
    """All candidate tuples whose consecutive pairs pass the connection gate.

    Returns an (H, K+1) integer array of 0-based candidate indices, one
    column per frame, rows in lexicographic order; scoring happens in
    :func:`compute_affinity`.  A candidate with no connection even after
    relaxation simply appears in no hypothesis, and so does the anchor
    frame's virtual, which only keeps the gate's lines from relaxing.
    The tuples start as the first pair's edge list and are extended pair by
    pair with the mask rows of each tuple's last member, so memory follows
    the tuple count times the frame size, not the product of the frame
    sizes.
    """
    arrays = batch.arrays
    masks = [_pair_mask(arrays[k - 1], arrays[k], gate)
             for k in range(1, batch.K + 1)]
    if batch.virtual:
        anchor = batch.anchor_position          # strictly inside the window
        masks[anchor - 1][:, -1] = masks[anchor][-1] = False
    tuples = np.stack(np.nonzero(masks[0]), axis=1)
    for mask in masks[1:]:
        # extend every tuple by each partner of its last member; read
        # row-major, the rows of the last members keep the order
        # lexicographic
        rows, tails = np.nonzero(mask[tuples[:, -1]])
        tuples = np.column_stack([tuples[rows], tails])
    return tuples


# ---------------------------------------------------------------------------
# Affinity provider
# ---------------------------------------------------------------------------

# the per-hypothesis statistic fields of a bundle, the names _affinity takes
_STATISTICS = ("appearance_edges", "squared_distances", "size_sum",
               "acceleration", "size_smoothness", "virtual_scale")


def _affinity(params: AffinityProviderParams, *, appearance_edges,
              squared_distances, size_sum, acceleration, size_smoothness,
              virtual_scale) -> np.ndarray:
    """The affinity of every hypothesis from its statistics (the fields of
    :class:`AffinityTensorBundle`)."""
    sigma = params.position_scale
    gauss = np.exp(-squared_distances / (2.0 * sigma * sigma))
    appearance = np.einsum("...d,...d->...", appearance_edges, gauss)
    decay = np.exp(-acceleration / sigma)
    return virtual_scale * (params.appearance_weight * appearance
                            + params.motion_weight * gauss.sum(axis=1)
                            + params.size_weight * size_sum
                            + params.long_term_weight * decay * size_smoothness)


def compute_affinity(batch: AssociationBatch,
                     hypotheses: np.ndarray,
                     params: AffinityProviderParams,
                     virtual_scale: float = 1.0,
                     resolved_virtuals: dict[int, np.ndarray] | None = None
                     ) -> AffinityTensorBundle:
    """Score every hypothesis into the solver's tensor.

    ``hypotheses`` is the (H, K+1) index array of :func:`generate_hypotheses`;
    it becomes the entries of the returned bundle's ``tensor``.
    A real edge scores the descriptor similarity of its two members; each
    pair's table of them is one matrix product.  A virtual member stands in
    for its hypothesis' anchor: it takes the anchor's center as resolved,
    the anchor's box size, and on its edge to the anchor the anchor's
    similarity to itself.  ``resolved_virtuals`` maps a frame position to
    the (I_anchor, 2) centers its virtual resolves to, one row per anchor
    slot; it is required whenever a hypothesis contains an adjacent-frame
    virtual.  A hypothesis through the anchor-frame virtual, which has no
    geometry, is rejected.
    Each virtual member of a hypothesis scales its affinity by
    ``virtual_scale``.

    The per-hypothesis statistics depend on the window alone; only their
    scoring reads ``params``, so :func:`rescore_affinity` can score the
    returned bundle under other parameters without recomputing them.
    """
    K = batch.K
    hyps = np.asarray(hypotheses, dtype=np.intp)
    if len(hyps) == 0:
        raise ContractError("hypothesis set is empty")
    if hyps.ndim != 2 or hyps.shape[1] != K + 1:
        raise ContractError(
            f"hypotheses must be an (H, {K + 1}) index array, got {hyps.shape}")
    arrays = batch.arrays
    for frame, fa in zip(batch.frames, arrays):
        if not np.all(np.isfinite(fa.descriptors)):
            raise InputValidationError(f"non-finite descriptor on frame {frame}")

    anchor_pos = batch.anchor_position
    anchors = arrays[anchor_pos]
    owner = hyps[:, anchor_pos]
    through = np.flatnonzero(anchors.is_virtual[owner])
    if len(through):
        raise ContractError(f"hypothesis {hyps[through[0]].tolist()} passes "
                            "through the anchor-frame virtual slot")

    n = len(hyps)
    app_edges = np.empty((n, K))
    for e, (a, b) in enumerate(zip(arrays, arrays[1:])):
        table = _clipped_square(a.descriptors @ b.descriptors.T,
                                a.norms[:, None], b.norms[None, :])
        app_edges[:, e] = table[hyps[:, e], hyps[:, e + 1]]
    # what a virtual member scores beside its anchor, once per window
    itself = (descriptor_similarity(anchors.descriptors, anchors.norms,
                                    anchors.descriptors, anchors.norms)
              if batch.virtual else None)

    virtual_count = np.zeros(n, dtype=np.intp)
    centers, box_sizes = [], []
    for pos, fa in enumerate(arrays):
        idx = hyps[:, pos]
        virtual = fa.is_virtual[idx]
        virtual_count += virtual
        center, size = fa.centers[idx], fa.boxes[idx, 2:]
        if virtual.any():
            resolved = (resolved_virtuals or {}).get(pos)
            who = owner[virtual]
            if (resolved is None or len(resolved) != len(anchors.is_virtual)
                    or np.isnan(resolved[who]).any()):
                raise ContractError(
                    f"no resolved virtual at frame position {pos} for anchor "
                    f"slots {sorted(set(who.tolist()))}")
            center[virtual] = resolved[who]
            size[virtual] = anchors.boxes[who, 2:]
            edge = pos if pos < anchor_pos else pos - 1   # beside the anchor
            app_edges[virtual, edge] = itself[who]
        centers.append(center)
        box_sizes.append(size)

    sq_dists = np.empty((n, K))
    size_sims = np.empty((n, K))
    for e in range(K):
        step = centers[e + 1] - centers[e]
        sq_dists[:, e] = step[:, 0] ** 2 + step[:, 1] ** 2
        (wa, ha), (wb, hb) = box_sizes[e].T, box_sizes[e + 1].T
        size_sims[:, e] = ((np.minimum(wa, wb) / np.maximum(wa, wb))
                           * (np.minimum(ha, hb) / np.maximum(ha, hb)))
    accel = np.zeros(n)
    for t in range(1, K):
        turn = (centers[t + 1] - centers[t]) - (centers[t] - centers[t - 1])
        accel += np.sqrt(np.einsum("...d,...d->...", turn, turn))
    size_prod = size_sims[:, 0]
    for e in range(1, K):
        size_prod = size_prod * size_sims[:, e]
    powers = np.array([virtual_scale ** v for v in range(K + 2)])
    statistics = dict(appearance_edges=app_edges, squared_distances=sq_dists,
                      size_sum=size_sims.sum(axis=1), acceleration=accel,
                      size_smoothness=size_prod ** (1.0 / K),
                      virtual_scale=powers[virtual_count])
    return AffinityTensorBundle(
        tensor=HypothesisTensor(hyps, _affinity(params, **statistics),
                                batch.sizes),
        params=params, **statistics)


def rescore_affinity(bundle: AffinityTensorBundle,
                     params: AffinityProviderParams) -> AffinityTensorBundle:
    """The bundle's hypotheses scored under ``params``.

    Returns a new bundle on the same per-hypothesis statistics, whose
    tensor shares the hypotheses and the stacked layout of
    ``bundle.tensor`` (:meth:`HypothesisTensor.with_values`); ``bundle``
    itself is left as it is.  The values equal those
    :func:`compute_affinity` gives for ``params`` exactly.
    """
    statistics = {name: getattr(bundle, name) for name in _STATISTICS}
    return replace(
        bundle, params=params,
        tensor=bundle.tensor.with_values(_affinity(params, **statistics)))


def backprop_affinity(bundle: AffinityTensorBundle,
                      d_values: np.ndarray) -> np.ndarray:
    """Map a loss gradient on the hypothesis values to parameter gradients.

    ``d_values`` holds one entry per hypothesis, in the order of
    ``bundle.tensor.values`` (the value gradient
    :func:`mdatrack.solver.power_iteration_backward` returns), and is pushed
    through the bundle's per-hypothesis statistics.  Returns the (5,)
    gradient in :attr:`AffinityProviderParams.FIELD_NAMES` order.
    """
    incoming = np.asarray(d_values, dtype=float)
    values = bundle.tensor.values
    if incoming.shape != values.shape:
        raise ContractError(
            f"gradient shape {incoming.shape} does not match the "
            f"{len(values)} hypothesis values")
    params = bundle.params
    sigma = params.position_scale

    gauss = np.exp(-bundle.squared_distances / (2.0 * sigma * sigma))
    app_gauss = bundle.appearance_edges * gauss
    long_term = np.exp(-bundle.acceleration / sigma) * bundle.size_smoothness
    scaled = incoming * bundle.virtual_scale

    d_motion = float(np.sum(scaled * gauss.sum(axis=1)))
    d_size = float(np.sum(scaled * bundle.size_sum))
    d_appearance = float(np.sum(scaled * app_gauss.sum(axis=1)))
    d_long = float(np.sum(scaled * long_term))
    # both Gaussian-attenuated terms contribute d(exp(-d2/2s^2))/ds
    d_sigma = float(np.sum(scaled * (
        np.sum((params.motion_weight + params.appearance_weight
                * bundle.appearance_edges)
               * gauss * bundle.squared_distances, axis=1) / sigma ** 3
        + params.long_term_weight * long_term * bundle.acceleration / sigma ** 2)))

    return np.array([d_motion, d_sigma, d_size, d_appearance, d_long])
