"""Online tracking loop: sliding association windows, virtual candidates
at the motion prediction, the solver chain, and target management.

Tracking works on K=2 windows with two overlapping frames.  The window
length is set by the virtual-candidate and target-management scheme below,
which is written for one anchor frame between two neighbours; the solver
takes any K, at memory linear in the hypothesis count.  Each window is
built with virtual slots: one virtual row ends every frame.  The two
adjacent-frame virtuals of each anchor sit at its constant-velocity
prediction.  The anchor-frame virtual has no geometry: no hypothesis
passes through it, so a window without a real anchor has no hypotheses.

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
once no window can read it.  A track whose prediction is carried onto a
window's anchor frame first re-acquires a free detection there at IoU >=
``t_dif``.
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

    def take(self, frame: int, detection: Candidate) -> None:
        """Continue on ``detection``: its box, appearance and score."""
        self.boxes[frame] = detection.box
        self.status = ACTIVE
        self.frames_coasting = 0
        self.descriptor = detection.appearance.copy()
        self.score = detection.score


@dataclass
class TrackState:
    """Live targets plus what links one window to the next.

    ``heads`` maps the candidate each live track ends on, a detection or a
    carried prediction, to that track; candidates hash by identity, so two
    with equal fields are two heads.  ``carried`` maps a frame to the
    predicted boxes carried onto it, as candidates; in a window they follow
    the frame's detections and precede its virtual slot.  Ids run 1, 2, ...
    in creation order.
    """

    targets: list[TrackRecord] = field(default_factory=list)
    heads: dict[Candidate, TrackRecord] = field(default_factory=dict)
    carried: dict[int, list[Candidate]] = field(default_factory=dict)
    skipped_windows: int = 0


def resolve_virtuals(batch: AssociationBatch,
                     anchor_velocities: dict[int, tuple[float, float]],
                     ) -> dict[int, np.ndarray]:
    """Place the adjacent-frame virtuals at each anchor's motion prediction.

    The virtual a real anchor continues in frame position ``pos`` sits at
    the anchor's constant-velocity extrapolation, its center plus velocity
    times the frame gap, with zero velocity for an anchor missing from
    ``anchor_velocities``.  Returns {frame position: (I_anchor, 2) centers},
    one row per anchor slot, NaN for the virtual anchor slot; a window
    without virtual slots has none."""
    if not batch.virtual:
        return {}
    anchors = batch.arrays[1]
    # the virtual anchor slot's center, and so its row, is NaN
    velocity = np.array([anchor_velocities.get(slot, (0.0, 0.0))
                         for slot in range(len(anchors.centers))], dtype=float)
    frames = batch.frames
    return {pos: anchors.centers + velocity * (frames[pos] - frames[1])
            for pos in (0, 2)}


def _reacquire(detections: Sequence[Candidate], frame: int, t_dif: float,
               state: TrackState) -> None:
    """Continue each track whose prediction is carried onto ``frame``, in
    carried order, on the free detection there that overlaps the prediction
    best, at IoU >= ``t_dif``.  Free means that no track owns or took it.
    The prediction leaves the frame, and later carried slots move down."""
    carried = state.carried.get(frame)
    if not carried or not detections:
        return
    overlap = box_iou(np.array([c.box for c in carried])[:, None],
                      np.array([d.box for d in detections]))
    # owned: 0 takes none
    overlap[:, [d in state.heads for d in detections]] = 0.0
    kept: list[Candidate] = []
    for k, prediction in enumerate(carried):
        best = int(overlap[k].argmax())
        if overlap[k, best] > 0.0 and overlap[k, best] >= t_dif:
            overlap[:, best] = 0.0
            track = state.heads.pop(prediction)
            track.take(frame, detections[best])
            state.heads[detections[best]] = track
        else:
            kept.append(prediction)
    state.carried[frame] = kept


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
    with no hypothesis or no affinity mass are skipped and counted, and the
    tracks they would continue exit.
    """
    if len(window) != 3:
        raise ContractError("tracking windows must span exactly three frames")
    f0, f1, f2 = window

    _reacquire(detection_frames[f1], f1, config.t_dif, state)
    window_cands = tuple((*detection_frames[f], *state.carried.get(f, ()))
                         for f in window)
    # later windows start at f1 or after: drop what only this one reads
    state.carried = {f: c for f, c in state.carried.items() if f >= f1}
    batch = AssociationBatch(frames=(f0, f1, f2), candidates=window_cands,
                             virtual=True)
    anchor_list = window_cands[1]
    real = len(anchor_list)
    # the track each anchor continues, None for an untracked one
    tracks = [state.heads.get(anchor) for anchor in anchor_list]

    velocities: dict[int, tuple[float, float]] = {}
    for slot, (anchor, track) in enumerate(zip(anchor_list, tracks)):
        if track is not None and f0 in track.boxes:
            (cx, cy), (px, py) = anchor.center, box_center(track.boxes[f0])
            velocities[slot] = (cx - px, cy - py)
    resolved = resolve_virtuals(batch, velocities)
    hypotheses = generate_hypotheses(batch, gate)
    bundle = (compute_affinity(batch, hypotheses, params,
                               virtual_scale=config.alpha,
                               resolved_virtuals=resolved)
              if len(hypotheses) else None)
    if bundle is None or bundle.tensor.values.max() <= 0.0:
        # no later window anchors on f1, so no head can continue
        for track in state.heads.values():
            track.status = EXITED
        state.heads = {}
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
    untracked = [slot for slot, track in enumerate(tracks) if track is None]
    doubtful = np.flatnonzero((next_slots != virtual_next_slot)
                              & (agreement < config.t_dif)).tolist()
    anchor_quality = dict(zip(untracked, quality.evaluate(
        [anchor_list[slot] for slot in untracked]) if untracked else ()))
    partner_quality = dict(zip(doubtful, quality.evaluate(
        [window_cands[2][next_slots[slot]] for slot in doubtful])
        if doubtful else ()))
    new_heads: dict[Candidate, TrackRecord] = {}
    carried_next = state.carried.setdefault(f2, [])

    for slot, (anchor, track, prediction, next_slot) in enumerate(zip(
            anchor_list, tracks, map(tuple, predictions.tolist()),
            next_slots.tolist())):
        if track is None:
            if anchor_quality[slot] <= QUALITY_THRESHOLD:
                continue
            track = TrackRecord(id=len(state.targets) + 1)
            track.take(f1, anchor)
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
            partner = window_cands[2][next_slot]
            if partner in new_heads:
                raise InternalInvariantError(
                    f"candidate {next_slot} on frame {f2} claimed twice")
            track.status = ACTIVE
            if not (slot in partner_quality
                    and partner_quality[slot] < QUALITY_THRESHOLD):
                track.take(f2, partner)
                new_heads[partner] = track
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
        carried = Candidate(
            frame_index=f2, center=box_center(prediction), box=prediction,
            score=track.score, appearance=track.descriptor.copy())
        new_heads[carried] = track
        carried_next.append(carried)

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
