"""Online tracking loop: sliding association windows, per-anchor virtual
candidate resolution, the solver chain, and target management.

Tracking works on K=2 windows with two overlapping frames.  The window
length is set by the virtual-candidate and target-management scheme below,
which is written for one anchor frame between two neighbours; the solver
takes any K, at memory linear in the hypothesis count.  Each window is
built with virtual slots: one virtual row ends every frame.  The two
adjacent-frame virtuals are resolved per anchor to the location
maximizing a search score built from the anchor's motion prediction and
appearance-weighted attraction to nearby detections.  The anchor-frame
virtual has no geometry: no hypothesis passes through it, so a window
without a real anchor has no hypotheses.

Target management follows the assignment of each real anchor in the
anchor-to-last-frame pair: untracked anchors with good boxes start
trajectories (a track born in the first window also takes its frame-0
partner), real partners update them (with the predicted box overriding a
disagreeing low-quality detection), and virtual partners either coast the
track on its prediction or, when the prediction leaves the frame or the
coast budget is exhausted, exit it.

The caller's detections are read-only.  A track continued on its predicted
box carries that box onto the window's last frame as a candidate of the
track state, so the next two windows can anchor on it; the state drops it
once no window can read it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .affinity import (
    AffinityProviderParams,
    ConnectionGateConfig,
    compute_affinity,
    generate_hypotheses,
)
from .errors import ContractError, InternalInvariantError
from .solver import (
    discretize,
    l1_normalize_forward,
    power_iteration_forward,
)
from .types import (
    AssociationBatch,
    Candidate,
    batch_windows,
    box_center,
    box_iou,
    box_visible_fraction,
)

Box = tuple[float, float, float, float]

ACTIVE = "active"
COASTING = "coasting"
EXITED = "exited"

#: A box whose estimated quality is at or below this starts no track, and a
#: partner detection below it that disagrees with the prediction is replaced
#: by the prediction.
QUALITY_THRESHOLD = 0.5


@dataclass(frozen=True)
class PipelineConfig:
    """Tracking-loop knobs; `alpha` scales virtual affinities down so a real
    candidate always beats its own prediction."""

    alpha: float = 0.8
    t_dif: float = 0.5
    t_exit: float = 0.3
    max_coast_frames: int = 10
    frame_width: float = 640.0
    frame_height: float = 480.0
    power_iterations: int = 10
    norm_pairs: int = 10

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ContractError("alpha must lie strictly inside (0, 1)")
        if not 0.0 <= self.t_dif <= 1.0 or not 0.0 <= self.t_exit <= 1.0:
            raise ContractError("IoU thresholds must lie in [0, 1]")
        if self.max_coast_frames < 0:
            raise ContractError("max_coast_frames must be >= 0")
        if self.power_iterations < 1:
            raise ContractError("power_iterations must be >= 1")
        if self.norm_pairs < 0:
            raise ContractError("norm_pairs must be >= 0")
        if not (self.frame_width > 0.0 and self.frame_height > 0.0):
            raise ContractError("frame_width and frame_height must be > 0")

    @property
    def frame_box(self) -> Box:
        return (0.0, 0.0, self.frame_width, self.frame_height)


class GroundTruthQuality:
    """Box-quality estimator for synthetic runs: a box is good when it
    overlaps some ground-truth box of its frame at IoU >= 0.5."""

    def __init__(self, gt_tracks: dict[int, dict[int, Box]],
                 iou_threshold: float = 0.5):
        self.iou_threshold = iou_threshold
        per_frame: dict[int, list[Box]] = {}
        for traj in gt_tracks.values():
            for frame, box in traj.items():
                per_frame.setdefault(frame, []).append(box)
        self._boxes = {frame: np.array(boxes, dtype=float)
                       for frame, boxes in per_frame.items()}

    def evaluate(self, candidates: Sequence[Candidate]) -> np.ndarray:
        """1.0 or 0.0 for each of one frame's candidates."""
        frames = {c.frame_index for c in candidates}
        if len(frames) > 1:
            raise ContractError(
                f"one frame per call, got frames {sorted(frames)}")
        gt = self._boxes.get(next(iter(frames), None), np.empty((0, 4)))
        boxes = np.array([c.box for c in candidates], dtype=float).reshape(-1, 4)
        best = box_iou(boxes[:, None], gt).max(axis=1, initial=0.0)
        return np.where(best >= self.iou_threshold, 1.0, 0.0)


class ConfidenceQuality:
    """Box-quality estimator for file-based runs: the detector confidence
    squashed into [0, 1]."""

    def evaluate(self, candidates: Sequence[Candidate]) -> np.ndarray:
        return np.clip([c.score for c in candidates], 0.0, 1.0)


@dataclass
class TrackRecord:
    """One target trajectory with per-frame boxes and lifecycle status."""

    id: int
    boxes: dict[int, Box] = field(default_factory=dict)
    status: str = ACTIVE
    frames_coasting: int = 0
    descriptor: np.ndarray = field(default_factory=lambda: np.zeros(1))
    score: float = 1.0


@dataclass
class TrackState:
    """Live targets plus what links one window to the next.

    ``heads`` maps (frame index, slot in that frame's window candidates) to
    the track owning that candidate.  ``carried`` maps a frame to the
    predicted boxes carried onto it, as candidates; in a window they follow
    the frame's detections and precede its virtual slot.  Ids run
    1, 2, ... in creation order.
    """

    targets: list[TrackRecord] = field(default_factory=list)
    heads: dict[tuple[int, int], TrackRecord] = field(default_factory=dict)
    carried: dict[int, list[Candidate]] = field(default_factory=dict)
    skipped_windows: int = 0


def resolve_virtuals(batch: AssociationBatch,
                     params: AffinityProviderParams,
                     anchor_velocities: dict[int, tuple[float, float]] | None = None,
                     ) -> dict[int, np.ndarray]:
    """Fix the adjacent-frame virtual centers, one location per anchor.

    For each real anchor the virtual in frame position ``pos`` resolves to
    the argmax of a local search score around the anchor's constant-velocity
    extrapolation: a sum of Gaussians over spots, the extrapolated point
    with weight 1 and each real detection of that frame weighted by its
    appearance similarity to the anchor (``batch.similarities``), for every
    anchor as one batched matmul at memory O(anchors x spots x 17).  The
    grid spans one box diagonal at a step of diagonal / 8 and is scanned
    row-major; ties resolve to the first maximum.  Returns {frame position:
    (I_anchor, 2) resolved centers}, one row per anchor slot, NaN for the
    virtual anchor slot; a window without virtual slots has none.
    """
    if not batch.virtual:
        return {}
    anchor_velocities = anchor_velocities or {}
    anchors = batch.arrays[1]
    real = len(anchors.is_virtual) - 1          # every anchor but the virtual
    denom = 2.0 * params.position_scale * params.position_scale
    velocity = np.array([anchor_velocities.get(slot, (0.0, 0.0))
                         for slot in range(real)], dtype=float).reshape(-1, 2)
    origin = anchors.centers[:-1]
    offsets = np.arange(-8, 9) * (anchors.diagonals[:-1] / 8.0)[:, None]
    before, after = batch.similarities
    resolved: dict[int, np.ndarray] = {}

    # each real anchor's similarity to each detection of the frame
    for pos, similarity in ((0, before[:-1, :-1].T), (2, after[:-1, :-1])):
        dt = batch.frames[pos] - batch.frames[1]
        px = origin[:, 0] + velocity[:, 0] * dt
        py = origin[:, 1] + velocity[:, 1] * dt
        grid_x = px[:, None] + offsets            # (anchors, 17) columns
        grid_y = py[:, None] + offsets            # (anchors, 17) rows

        # (anchors, spots): the extrapolated point, then the detections
        spots = batch.arrays[pos].centers[:-1]
        weights = np.ones((real, len(spots) + 1))
        weights[:, 1:] = similarity
        spot = np.empty((real, len(spots) + 1, 2))
        spot[:, 0, 0], spot[:, 0, 1], spot[:, 1:] = px, py, spots
        # exp(-(dx² + dy²) / denom) = exp(-dx² / denom) * exp(-dy² / denom),
        # so the score at (row r, column c) is sum_s w_s * gy_s[r] * gx_s[c]:
        # one batched matmul per block of anchors.  A block's float arrays
        # stay near 32 KiB: glibc malloc maps larger ones from the system,
        # or trims them back to it, and faults their pages in on every call
        best = np.empty(real, dtype=np.intp)
        block = max(1, 32768 // (8 * 17 * (len(spots) + 1)))
        for a in range(0, real, block):
            b = slice(a, a + block)
            gx = np.exp((grid_x[b, None, :] - spot[b, :, 0, None]) ** 2 / -denom)
            gy = np.exp((grid_y[b, None, :] - spot[b, :, 1, None]) ** 2 / -denom)
            gy *= weights[b, :, None]
            scores = np.matmul(gy.transpose(0, 2, 1), gx)  # (anchors, rows, columns)
            best[b] = np.argmax(scores.reshape(-1, 17 * 17), axis=1)
        row, col = np.divmod(best, 17)
        each = np.arange(real)
        resolved[pos] = centers = np.full((real + 1, 2), np.nan)  # NaN: virtual
        centers[:-1, 0], centers[:-1, 1] = grid_x[each, col], grid_y[each, row]
    return resolved


def track_batch(detection_frames: list[list[Candidate]],
                window: list[int],
                gate: ConnectionGateConfig,
                params: AffinityProviderParams,
                config: PipelineConfig,
                quality,
                state: TrackState) -> TrackState:
    """Process one K=2 association window and update the track state.

    ``detection_frames`` holds the per-frame detections and is only read;
    the predictions of continued tracks are carried in ``state``.  Windows
    with no hypothesis or no affinity mass are skipped and counted.
    """
    if len(window) != 3:
        raise ContractError("tracking windows must span exactly three frames")
    f0, f1, f2 = window

    window_cands = tuple((*detection_frames[f], *state.carried.get(f, ()))
                         for f in window)
    # later windows start at f1 or after: drop what only this one reads
    state.carried = {f: c for f, c in state.carried.items() if f >= f1}
    batch = AssociationBatch(frames=(f0, f1, f2), candidates=window_cands,
                             virtual=True)
    anchor_list = window_cands[1]
    real = len(anchor_list)

    velocities: dict[int, tuple[float, float]] = {}
    for slot, anchor in enumerate(anchor_list):
        track = state.heads.get((f1, slot))
        prev_box = None if track is None else track.boxes.get(f0)
        if prev_box is not None:
            (cx, cy), (px, py) = anchor.center, box_center(prev_box)
            velocities[slot] = (cx - px, cy - py)
    resolved = resolve_virtuals(batch, params, velocities)
    hypotheses = generate_hypotheses(batch, gate)
    bundle = (compute_affinity(batch, hypotheses, params,
                               virtual_scale=config.alpha,
                               resolved_virtuals=resolved)
              if len(hypotheses) else None)
    if bundle is None or bundle.tensor.values.max() <= 0.0:
        state.skipped_windows += 1
        return state

    power_state = power_iteration_forward(bundle.tensor, config.power_iterations)
    # only the first window reads the (f0, f1) pair, for frame 0's backfill
    pairs = power_state.log_pairs(0 if f0 == 0 else 1)
    norm_state = l1_normalize_forward(pairs, config.norm_pairs,
                                      virtual=batch.virtual)
    binary = discretize(norm_state.matrices(), virtual=batch.virtual)
    x_next = binary[-1][:real]
    # each frame's virtual slot follows its candidates
    virtual_next_slot = len(window_cands[2])

    # each real anchor's partner: the first 1 of its binary row, or the
    # virtual slot for an unassigned row
    next_slots = np.where(x_next.any(axis=1), x_next.argmax(axis=1),
                          virtual_next_slot)
    # what target management compares, for every real anchor at once
    sizes = batch.arrays[1].boxes[:real, 2:]
    predictions = np.concatenate([resolved[2][:real] - sizes / 2.0, sizes],
                                 axis=1)
    agreement = box_iou(predictions, batch.arrays[2].boxes[next_slots])
    in_frame = box_visible_fraction(predictions, config.frame_box)
    # box quality only where it is read: untracked anchors, and the real
    # partners that disagree with their anchor's prediction
    untracked = [slot for slot in range(real) if (f1, slot) not in state.heads]
    doubtful = np.flatnonzero((next_slots != virtual_next_slot)
                              & (agreement < config.t_dif)).tolist()
    anchor_quality = dict(zip(untracked, quality.evaluate(
        [anchor_list[slot] for slot in untracked]) if untracked else ()))
    partner_quality = dict(zip(doubtful, quality.evaluate(
        [window_cands[2][next_slots[slot]] for slot in doubtful])
        if doubtful else ()))
    new_heads: dict[tuple[int, int], TrackRecord] = {}
    # slots of newly carried predictions start at f2's virtual slot, past
    # every real partner's slot
    carried_next = state.carried.setdefault(f2, [])
    first_carried_slot = len(detection_frames[f2])

    for slot, (prediction, next_slot) in enumerate(
            zip(map(tuple, predictions.tolist()), next_slots.tolist())):
        anchor = anchor_list[slot]
        track = state.heads.get((f1, slot))
        if track is None:
            if anchor_quality[slot] <= QUALITY_THRESHOLD:
                continue
            track = TrackRecord(
                id=len(state.targets) + 1,
                boxes={f1: anchor.box},
                descriptor=anchor.appearance.copy(),
                score=anchor.score,
            )
            state.targets.append(track)
            # frame 0 is never an anchor: backfill a track's partner there
            if f0 == 0:
                preds = np.flatnonzero(binary[0][:, slot])
                if preds.size == 1 and preds[0] != len(window_cands[0]):
                    track.boxes[f0] = window_cands[0][int(preds[0])].box
        if track.status == EXITED:
            raise InternalInvariantError(
                f"exited track {track.id} referenced by an anchor")

        if next_slot != virtual_next_slot:
            if (f2, next_slot) in new_heads:
                raise InternalInvariantError(
                    f"candidate {next_slot} on frame {f2} claimed twice")
            partner = window_cands[2][next_slot]
            track.status = ACTIVE
            if not (slot in partner_quality
                    and partner_quality[slot] < QUALITY_THRESHOLD):
                track.boxes[f2] = partner.box
                track.frames_coasting = 0
                track.descriptor = partner.appearance.copy()
                track.score = partner.score
                new_heads[(f2, next_slot)] = track
                continue
            # the detection disagrees with the prediction and looks bad:
            # keep the predicted box, reuse the stored appearance
        else:
            if in_frame[slot] < config.t_exit:
                track.status = EXITED
                continue
            track.frames_coasting += 1
            if track.frames_coasting > config.max_coast_frames:
                track.status = EXITED
                continue
            track.status = COASTING
        track.boxes[f2] = prediction
        new_heads[(f2, first_carried_slot + len(carried_next))] = track
        carried_next.append(Candidate(
            frame_index=f2, center=box_center(prediction), box=prediction,
            score=track.score, appearance=track.descriptor.copy()))

    state.heads = new_heads
    return state


def run_sequence(detection_frames: list[list[Candidate]],
                 gate: ConnectionGateConfig,
                 params: AffinityProviderParams,
                 config: PipelineConfig,
                 quality) -> list[TrackRecord]:
    """Track a whole sequence: slide the windows, thread the state through,
    and return every trajectory (exited ones included)."""
    state = TrackState()
    for window in batch_windows(len(detection_frames)):
        track_batch(detection_frames, window, gate, params, config, quality,
                    state)
    return state.targets
