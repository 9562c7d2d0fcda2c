"""MOTChallenge-format ingestion/emission, CLEAR MOT metrics, and the
synthetic scenario generator used for training and acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .assignment import linear_sum_assignment
from .errors import ContractError, ParseError
from .types import Candidate, box_center, box_iou

Box = tuple[float, float, float, float]


@dataclass(frozen=True)
class MotRecord:
    """One comma-separated record: frame,id,left,top,width,height,conf,x,y,z.

    Frames are 1-based in files; detections carry id -1; x, y, z are unused
    and emitted as -1.
    """

    frame: int
    id: int
    left: float
    top: float
    width: float
    height: float
    conf: float
    x: float = -1.0
    y: float = -1.0
    z: float = -1.0

    @property
    def box(self) -> Box:
        return (self.left, self.top, self.width, self.height)


def parse_mot_line(line: str, line_number: int) -> MotRecord:
    parts = [p.strip() for p in line.split(",")]
    if len(parts) < 7:
        raise ParseError(f"expected at least 7 fields, got {len(parts)}",
                         line_number)
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"non-numeric field ({exc})", line_number) from None
    bad = next((i for i, v in enumerate(values) if not math.isfinite(v)), None)
    if bad is not None:
        raise ParseError(f"field {bad + 1} is not finite: {parts[bad]!r}",
                         line_number)
    for i, name in enumerate(("frame", "id")):
        # truncating 2.7 to 2 would merge a malformed row into another track
        if not values[i].is_integer():
            raise ParseError(f"field {i + 1} ({name}) is not an integer: "
                             f"{parts[i]!r}", line_number)
    frame, ident = int(values[0]), int(values[1])
    numbers = values[2:]
    while len(numbers) < 8:
        numbers.append(-1.0)
    left, top, width, height, conf, x, y, z = numbers[:8]
    if frame < 1:
        raise ParseError(f"frame must be >= 1, got {frame}", line_number)
    if width <= 0 or height <= 0:
        raise ParseError(
            f"box size must be positive, got {width}x{height}", line_number)
    return MotRecord(frame, ident, left, top, width, height, conf, x, y, z)


def format_mot_record(rec: MotRecord) -> str:
    fields = [str(rec.frame), str(rec.id)]
    fields += [repr(float(v)) for v in
               (rec.left, rec.top, rec.width, rec.height, rec.conf,
                rec.x, rec.y, rec.z)]
    return ",".join(fields)


def load_mot_records(source) -> list[MotRecord]:
    """Parse a MOT file or text stream; records come back sorted by frame
    (stable within a frame)."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    records = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        records.append(parse_mot_line(line, lineno))
    records.sort(key=lambda r: r.frame)
    return records


def save_mot_records(records: list[MotRecord], sink) -> None:
    text = "".join(format_mot_record(rec) + "\n" for rec in records)
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text, encoding="utf-8")


def load_mot(source, descriptor_length: int = 24) -> list[list[Candidate]]:
    """Load detections from a path or stream as per-frame candidate lists
    (frame indices 0-based).

    File-based candidates carry an all-zero descriptor, which the affinity
    provider treats as appearance-neutral.
    """
    records = load_mot_records(source)
    if not records:
        return []
    frame_count = max(r.frame for r in records)
    frames: list[list[Candidate]] = [[] for _ in range(frame_count)]
    for rec in records:
        frames[rec.frame - 1].append(Candidate(
            frame_index=rec.frame - 1,
            center=box_center(rec.box),
            box=rec.box,
            score=rec.conf,
            appearance=np.zeros(descriptor_length),
        ))
    return frames


def tracks_to_records(tracks: dict[int, dict[int, Box]],
                      conf: float = 1.0) -> list[MotRecord]:
    """Flatten id -> frame -> box trajectories into sorted MOT records."""
    records = []
    for ident in sorted(tracks):
        for frame in sorted(tracks[ident]):
            left, top, w, h = tracks[ident][frame]
            records.append(MotRecord(frame + 1, ident, left, top, w, h, conf))
    records.sort(key=lambda r: (r.frame, r.id))
    return records


def check_track_records(records: list[MotRecord]) -> None:
    """Reject records that are not one box per target and frame: a negative
    id (detections carry -1) or an id repeated on a frame."""
    seen: set[tuple[int, int]] = set()
    for rec in records:
        if rec.id < 0:
            raise ContractError(
                f"frame {rec.frame}: id {rec.id} is negative, not a target id")
        if (rec.frame, rec.id) in seen:
            raise ContractError(f"frame {rec.frame}: id {rec.id} appears twice")
        seen.add((rec.frame, rec.id))


def records_to_tracks(records: list[MotRecord]) -> dict[int, dict[int, Box]]:
    check_track_records(records)
    tracks: dict[int, dict[int, Box]] = {}
    for rec in records:
        tracks.setdefault(rec.id, {})[rec.frame - 1] = rec.box
    return tracks


# ---------------------------------------------------------------------------
# CLEAR MOT metrics
# ---------------------------------------------------------------------------

@dataclass
class ClearMotReport:
    mota: float
    motp: float
    mostly_tracked: float       # percentage of targets
    mostly_lost: float          # percentage of targets
    false_positives: int
    false_negatives: int
    id_switches: int
    total_gt_boxes: int
    matches: list[tuple[int, int, int]] = field(default_factory=list)

    def summary(self) -> str:
        return (f"MOTA {self.mota:.4f}  MOTP {self.motp:.4f}  "
                f"MT {self.mostly_tracked:.1f}%  ML {self.mostly_lost:.1f}%  "
                f"FP {self.false_positives}  FN {self.false_negatives}  "
                f"IDS {self.id_switches}")


def clear_mot(gt: dict[int, dict[int, Box]],
              hyp: dict[int, dict[int, Box]],
              iou_threshold: float = 0.5) -> ClearMotReport:
    """CLEAR MOT scores for hypothesis trajectories against ground truth.

    Matching is per frame: pairs matched on the previous frame keep their
    match while still above the IoU threshold (continuity preference), the
    rest are matched by maximum total IoU
    (:func:`mdatrack.assignment.linear_sum_assignment`).  MOTP is reported
    as mean IoU of matches (higher is better); without ground truth, MOTA
    is 1.0 when there is no error and -inf otherwise.  Mostly tracked /
    mostly lost use the 80% / 20% lifespan conventions.
    """
    gt_frames: dict[int, list[tuple[int, Box]]] = {}
    for ident, traj in gt.items():
        for frame, box in traj.items():
            gt_frames.setdefault(frame, []).append((ident, box))
    hyp_frames: dict[int, list[tuple[int, Box]]] = {}
    for ident, traj in hyp.items():
        for frame, box in traj.items():
            hyp_frames.setdefault(frame, []).append((ident, box))

    frames = sorted(set(gt_frames) | set(hyp_frames))
    total_gt = sum(len(v) for v in gt_frames.values())

    fp = fn = ids = 0
    iou_sum = 0.0
    match_count = 0
    current: dict[int, int] = {}      # gt id -> hyp id matched last frame
    last_match: dict[int, int] = {}   # gt id -> most recent hyp id ever
    matched_per_gt: dict[int, int] = {ident: 0 for ident in gt}
    match_log: list[tuple[int, int, int]] = []

    for frame in frames:
        gts = sorted(gt_frames.get(frame, []))
        hyps = sorted(hyp_frames.get(frame, []))
        gt_ids = [g[0] for g in gts]
        hyp_ids = [h[0] for h in hyps]
        hyp_column = {hid: j for j, hid in enumerate(hyp_ids)}
        gt_boxes = np.array([g[1] for g in gts], dtype=float).reshape(-1, 4)
        hyp_boxes = np.array([h[1] for h in hyps], dtype=float).reshape(-1, 4)
        iou = box_iou(gt_boxes[:, None], hyp_boxes)

        pairs: list[tuple[int, int]] = []
        used_g: set[int] = set()
        used_h: set[int] = set()
        # continuity: keep last frame's pairing when still valid
        for i, gid in enumerate(gt_ids):
            j = hyp_column.get(current.get(gid))
            if j is not None and iou[i, j] >= iou_threshold:
                pairs.append((i, j))
                used_g.add(i)
                used_h.add(j)
        # optimal matching for the rest
        free_g = [i for i in range(len(gts)) if i not in used_g]
        free_h = [j for j in range(len(hyps)) if j not in used_h]
        if free_g and free_h:
            sub = iou[np.ix_(free_g, free_h)]
            rows, cols = linear_sum_assignment(-sub)
            for r, c in zip(rows, cols):
                if sub[r, c] >= iou_threshold:
                    pairs.append((free_g[r], free_h[c]))

        new_current: dict[int, int] = {}
        for i, j in pairs:
            gid, hid = gt_ids[i], hyp_ids[j]
            if gid in last_match and last_match[gid] != hid:
                ids += 1
            last_match[gid] = hid
            new_current[gid] = hid
            iou_sum += iou[i, j]
            match_count += 1
            matched_per_gt[gid] = matched_per_gt.get(gid, 0) + 1
            match_log.append((frame, gid, hid))
        # each gt and each hypothesis is in at most one pair
        fn += len(gts) - len(pairs)
        fp += len(hyps) - len(pairs)
        current = new_current

    errors = fp + fn + ids       # without ground truth, 1 - errors/GT's limit
    mota = (1.0 - errors / total_gt if total_gt
            else -math.inf if errors else 1.0)
    motp = float(iou_sum / match_count) if match_count else 0.0

    mt = ml = 0
    for ident, traj in gt.items():
        span = len(traj)
        if span == 0:
            continue
        ratio = matched_per_gt.get(ident, 0) / span
        if ratio >= 0.8:
            mt += 1
        if ratio <= 0.2:
            ml += 1
    n_targets = len(gt) if gt else 1
    return ClearMotReport(
        mota=mota,
        motp=motp,
        mostly_tracked=100.0 * mt / n_targets,
        mostly_lost=100.0 * ml / n_targets,
        false_positives=fp,
        false_negatives=fn,
        id_switches=ids,
        total_gt_boxes=total_gt,
        matches=match_log,
    )


# ---------------------------------------------------------------------------
# Synthetic scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """Desk-scale synthetic tracking scenario, fully determined by the seed."""

    frame_count: int = 50
    target_count: int = 10
    velocity_range: tuple[float, float] = (1.0, 4.0)
    box_size_range: tuple[float, float] = (24.0, 40.0)
    noise_sigma: float = 0.0
    miss_probability: float = 0.0
    false_positive_rate: float = 0.0
    seed: int = 0
    frame_width: float = 640.0
    frame_height: float = 480.0
    descriptor_length: int = 24
    descriptor_noise: float = 0.05

    def __post_init__(self):
        # written so that NaN fails every bound
        for name, least in (("frame_count", 1), ("target_count", 0),
                            ("descriptor_length", 1), ("seed", 0)):
            value = getattr(self, name)
            if not value >= least:
                raise ContractError(f"{name} must be >= {least}, got {value}")
        if not 0.0 <= self.miss_probability <= 1.0:
            raise ContractError("miss_probability must be in [0, 1]")
        for name in ("noise_sigma", "false_positive_rate", "descriptor_noise"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ContractError(f"{name} must be finite and >= 0")
        low, high = self.velocity_range
        if not -math.inf < low <= high < math.inf:
            raise ContractError(
                "velocity_range (velocity_min, velocity_max) must be finite "
                f"with low <= high, got {self.velocity_range}")
        low, high = self.box_size_range
        if not 0.0 < low <= high < math.inf:
            raise ContractError(
                "box_size_range (box_min, box_max) must be finite with "
                f"0 < low <= high, got {self.box_size_range}")
        for name in ("frame_width", "frame_height"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ContractError(f"{name} must be finite and > 0")


@dataclass
class Scenario:
    """Generated ground truth plus its noisy detection channel."""

    spec: ScenarioSpec
    gt_tracks: dict[int, dict[int, Box]]
    gt_frames: list[list[Candidate]]          # GT boxes as candidates
    gt_frame_ids: list[list[int]]             # target id per GT candidate
    detection_frames: list[list[Candidate]]


def generate_scenario(spec: ScenarioSpec) -> Scenario:
    """Constant-velocity targets with reflective frame boundaries.

    Detections are the GT boxes with Gaussian center noise, dropped with the
    miss probability, plus uniformly placed false positives (Poisson count
    per frame).  Appearance descriptors are a per-target stable random
    vector plus per-frame noise.
    """
    rng = np.random.default_rng(spec.seed)
    width, height = spec.frame_width, spec.frame_height

    sizes = rng.uniform(*spec.box_size_range, size=(spec.target_count, 2))
    positions = np.column_stack([
        rng.uniform(width * 0.15, width * 0.85, spec.target_count),
        rng.uniform(height * 0.15, height * 0.85, spec.target_count),
    ])
    speeds = rng.uniform(*spec.velocity_range, spec.target_count)
    angles = rng.uniform(0.0, 2.0 * np.pi, spec.target_count)
    velocities = np.column_stack([speeds * np.cos(angles),
                                  speeds * np.sin(angles)])
    bases = rng.normal(size=(spec.target_count, spec.descriptor_length))
    bases /= np.linalg.norm(bases, axis=1, keepdims=True)

    gt_tracks: dict[int, dict[int, Box]] = {t: {} for t in range(spec.target_count)}
    gt_frames: list[list[Candidate]] = []
    gt_frame_ids: list[list[int]] = []
    detection_frames: list[list[Candidate]] = []

    pos = positions.copy()
    vel = velocities.copy()
    for frame in range(spec.frame_count):
        gt_list: list[Candidate] = []
        id_list: list[int] = []
        det_list: list[Candidate] = []
        for t in range(spec.target_count):
            w, h = sizes[t]
            cx, cy = pos[t]
            box = (cx - w / 2.0, cy - h / 2.0, float(w), float(h))
            gt_tracks[t][frame] = box
            descriptor = bases[t] + spec.descriptor_noise * rng.normal(
                size=spec.descriptor_length)
            gt_list.append(Candidate(frame, (cx, cy), box, 1.0,
                                     appearance=descriptor))
            id_list.append(t)
            missed = rng.uniform() < spec.miss_probability
            noise = rng.normal(scale=spec.noise_sigma, size=2) \
                if spec.noise_sigma > 0 else np.zeros(2)
            if not missed:
                dx, dy = noise
                det_box = (box[0] + dx, box[1] + dy, float(w), float(h))
                det_list.append(Candidate(
                    frame, box_center(det_box), det_box,
                    rng.uniform(0.8, 1.0), appearance=descriptor))
        n_fp = int(rng.poisson(spec.false_positive_rate))
        for _ in range(n_fp):
            w = float(rng.uniform(*spec.box_size_range))
            h = float(rng.uniform(*spec.box_size_range))
            cx = float(rng.uniform(0, width))
            cy = float(rng.uniform(0, height))
            det_list.append(Candidate(
                frame, (cx, cy), (cx - w / 2, cy - h / 2, w, h),
                rng.uniform(0.1, 0.6),
                appearance=rng.normal(size=spec.descriptor_length)))
        gt_frames.append(gt_list)
        gt_frame_ids.append(id_list)
        detection_frames.append(det_list)

        # advance with reflection at the frame boundary
        pos = pos + vel
        for t in range(spec.target_count):
            for axis, limit in ((0, width), (1, height)):
                margin = sizes[t][axis] / 2.0
                if pos[t, axis] < margin:
                    pos[t, axis] = 2 * margin - pos[t, axis]
                    vel[t, axis] = -vel[t, axis]
                elif pos[t, axis] > limit - margin:
                    pos[t, axis] = 2 * (limit - margin) - pos[t, axis]
                    vel[t, axis] = -vel[t, axis]

    return Scenario(spec, gt_tracks, gt_frames, gt_frame_ids, detection_frames)
