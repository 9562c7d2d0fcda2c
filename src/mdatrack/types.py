"""Domain types for the association engine.

Candidates are Python objects at the program's edges (detections in,
tracks out).  Inside one window the front end works on arrays: each frame
of an :class:`AssociationBatch` becomes one :class:`FrameArrays`, built
once per window and shared by the gate, the hypothesis generator, virtual
resolution and the affinity provider.  Every index in those arrays is
0-based: a hypothesis is a row of 0-based candidate indices, one per frame,
and the flat index of the pair (i_prev, i_next) is ``i_prev * I_next +
i_next``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import ContractError, InputValidationError, RangeError

#: Length of the appearance descriptor carried by every candidate.  A fixed
#: length keeps the affinity provider interface uniform; 24 corresponds to an
#: 8-bin-per-channel color histogram over the candidate patch.
DEFAULT_DESCRIPTOR_LENGTH = 24


# ---------------------------------------------------------------------------
# Box geometry helpers (boxes are (left, top, width, height) in pixels)
# ---------------------------------------------------------------------------

def box_center(box: tuple[float, float, float, float]) -> tuple[float, float]:
    left, top, w, h = box
    return (left + w / 2.0, top + h / 2.0)


def box_diagonal(box: tuple[float, float, float, float]) -> float:
    return math.hypot(box[2], box[3])


def _intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection areas of broadcast (..., 4) box arrays."""
    extent = (np.minimum(a[..., :2] + a[..., 2:], b[..., :2] + b[..., 2:])
              - np.maximum(a[..., :2], b[..., :2]))
    np.maximum(extent, 0.0, out=extent)
    return extent[..., 0] * extent[..., 1]


def _ratio(numerator: np.ndarray, denominator: np.ndarray):
    """``numerator / denominator``, 0.0 where the denominator is not
    positive: a float for one box, else an array of the numerator's shape."""
    out = np.divide(numerator, denominator, out=np.zeros(np.shape(numerator)),
                    where=denominator > 0.0)
    return float(out) if out.ndim == 0 else out


def box_iou(a, b):
    """Intersection over union of (l, t, w, h) boxes, one box each or
    (..., 4) arrays that broadcast; 0.0 for an empty union and exactly 1.0
    for identical boxes of positive area; capped at 1.0 against rounding.
    This and :func:`box_visible_fraction` are the package's only overlap
    code."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    area_a, area_b = a[..., 2] * a[..., 3], b[..., 2] * b[..., 3]
    inter = np.asarray(_intersection(a, b))
    # rounding in (l + w) - l moves an identical box's intersection off its
    # area, either way; only pairs that share a left edge can be identical
    same = a[..., 0] == b[..., 0]
    if same.any():
        full_a, full_b = np.broadcast_arrays(a, b)
        identical = (full_a[same] == full_b[same]).all(axis=-1)
        area = np.broadcast_to(area_a, inter.shape)[same]
        inter[same] = np.where(identical, area, inter[same])
    union = area_a + area_b - inter
    # an intersection capped at the union caps the ratio at 1.0
    return _ratio(np.minimum(inter, union), union)


def box_visible_fraction(box, frame_box):
    """Fraction of ``box`` that lies inside ``frame_box``, for one box or
    broadcast (..., 4) box arrays.

    Used for the exit test: a true IoU against the whole frame is near zero
    for any normally sized target, so the exit rule compares the box's
    in-frame overlap against its own area instead.
    """
    box = np.asarray(box, dtype=float)
    return _ratio(_intersection(box, np.asarray(frame_box, dtype=float)),
                  box[..., 2] * box[..., 3])


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Candidate:
    """A detection or virtual hypothesis on one frame.

    ``center`` is ``None`` for a virtual candidate that has not been resolved
    yet; reading it in that state is an error (use :func:`require_center`).
    Instances are immutable after construction and safe to share.
    """

    frame_index: int
    center: tuple[float, float] | None
    box: tuple[float, float, float, float]
    score: float
    is_virtual: bool = False
    appearance: np.ndarray = field(
        default_factory=lambda: np.zeros(DEFAULT_DESCRIPTOR_LENGTH))

    def __post_init__(self):
        if self.frame_index < 0:
            raise RangeError(f"frame_index must be >= 0, got {self.frame_index}")
        if not self.is_virtual:
            if self.box[2] <= 0 or self.box[3] <= 0:
                raise InputValidationError(
                    f"real candidate box must have positive size, got {self.box}")
            if self.center is None:
                raise InputValidationError("real candidate must carry a center")


def require_center(candidate: Candidate) -> tuple[float, float]:
    """Return the candidate's center, rejecting unresolved virtuals."""
    if candidate.center is None:
        raise InputValidationError(
            "virtual candidate center read before resolution "
            f"(frame {candidate.frame_index})")
    return candidate.center


class FrameArrays(NamedTuple):
    """One frame of a window as arrays, one row per candidate in list order.

    An unresolved virtual candidate has a NaN center and a zero descriptor;
    its box is kept as given.
    """

    centers: np.ndarray       # (n, 2)
    boxes: np.ndarray         # (n, 4) left, top, width, height
    diagonals: np.ndarray     # (n,) box diagonal
    descriptors: np.ndarray   # (n, D)
    norms: np.ndarray         # (n,) descriptor Euclidean norm
    is_virtual: np.ndarray    # (n,) bool


def _window_arrays(candidates: tuple[tuple[Candidate, ...], ...]
                   ) -> tuple[FrameArrays, ...]:
    """Build every frame's arrays in one pass over the window; the frames
    are views into window-wide arrays."""
    flat = [c for frame in candidates for c in frame]
    n = len(flat)
    length = next((len(c.appearance) for c in flat if not c.is_virtual),
                  DEFAULT_DESCRIPTOR_LENGTH)
    blank = np.zeros(length)
    try:
        descriptors = np.array(
            [blank if c.is_virtual else c.appearance for c in flat],
            dtype=float).reshape(n, length)
    except ValueError:
        raise InputValidationError(
            "descriptor lengths differ within one window") from None
    centers = np.array([(math.nan, math.nan) if c.center is None else c.center
                        for c in flat], dtype=float).reshape(n, 2)
    boxes = np.array([c.box for c in flat], dtype=float).reshape(n, 4)
    diagonals = np.array([box_diagonal(c.box) for c in flat], dtype=float)
    norms = np.linalg.norm(descriptors, axis=1)
    is_virtual = np.array([c.is_virtual for c in flat], dtype=bool)
    bounds = list(accumulate((len(frame) for frame in candidates), initial=0))
    return tuple(
        FrameArrays(centers[a:b], boxes[a:b], diagonals[a:b], descriptors[a:b],
                    norms[a:b], is_virtual[a:b])
        for a, b in zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class AssociationBatch:
    """A window of K+1 frames processed as one solver instance."""

    frames: tuple[int, ...]
    candidates: tuple[tuple[Candidate, ...], ...]

    def __post_init__(self):
        if len(self.frames) < 3:
            raise RangeError(f"a window needs at least 3 frames, got {self.frames}")
        if any(b <= a for a, b in zip(self.frames, self.frames[1:])):
            raise ContractError(f"frames must be strictly increasing: {self.frames}")
        if len(self.candidates) != len(self.frames):
            raise ContractError(
                f"one candidate list per frame required: {len(self.frames)} "
                f"frames, {len(self.candidates)} lists")
        for pos, frame_cands in enumerate(self.candidates):
            if sum(1 for c in frame_cands if c.is_virtual) > 1:
                raise ContractError(
                    f"frame position {pos} holds more than one virtual candidate")

    @property
    def K(self) -> int:
        """Frame pairs in the window."""
        return len(self.frames) - 1

    @property
    def anchor_position(self) -> int:
        """Position of the anchor frame within the window (middle frame)."""
        return self.K // 2

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.candidates)

    @cached_property
    def arrays(self) -> tuple[FrameArrays, ...]:
        """The window's frames as arrays, built on first use and shared by
        the gate, hypothesis generation, virtual resolution and affinity."""
        return _window_arrays(self.candidates)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def batch_windows(frame_count: int) -> list[list[int]]:
    """Sliding three-frame association windows, advancing one frame each:
    [0,1,2], [1,2,3], ...  A sequence shorter than one window yields an
    empty schedule with a warning.
    """
    if frame_count < 3:
        warnings.warn(
            f"sequence of {frame_count} frames is shorter than one window "
            "of 3; empty schedule", stacklevel=2)
        return []
    return [[start, start + 1, start + 2] for start in range(frame_count - 2)]
