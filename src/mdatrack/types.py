"""Domain types for the association engine.

Candidates are Python objects at the program's edges (detections in,
tracks out).  Inside one window the front end works on arrays: each frame
of an :class:`AssociationBatch` becomes one :class:`FrameArrays`, built
once per window and shared by the gate, the hypothesis generator, virtual
resolution and the affinity provider, and so are its descriptor
similarity tables.  Every index in those arrays is 0-based: a hypothesis is
a row of 0-based candidate indices, one per frame, and the flat index of
the pair (i_prev, i_next) is ``i_prev * I_next + i_next``.
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
    width = (np.minimum(a[..., 0] + a[..., 2], b[..., 0] + b[..., 2])
             - np.maximum(a[..., 0], b[..., 0]))
    height = (np.minimum(a[..., 1] + a[..., 3], b[..., 1] + b[..., 3])
              - np.maximum(a[..., 1], b[..., 1]))
    return np.maximum(width, 0.0) * np.maximum(height, 0.0)


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
    """A detection on one frame, or a predicted box carried onto it.

    Instances are immutable after construction and safe to share.
    """

    frame_index: int
    center: tuple[float, float]
    box: tuple[float, float, float, float]
    score: float
    appearance: np.ndarray = field(
        default_factory=lambda: np.zeros(DEFAULT_DESCRIPTOR_LENGTH))

    def __post_init__(self):
        if self.frame_index < 0:
            raise RangeError(f"frame_index must be >= 0, got {self.frame_index}")
        if self.box[2] <= 0 or self.box[3] <= 0:
            raise InputValidationError(
                f"candidate box must have positive size, got {self.box}")


class FrameArrays(NamedTuple):
    """One frame of a window as arrays, one row per candidate in list order,
    then the virtual slot's row in a window with virtual slots."""

    centers: np.ndarray       # (n, 2)
    boxes: np.ndarray         # (n, 4) left, top, width, height
    diagonals: np.ndarray     # (n,) box diagonal
    descriptors: np.ndarray   # (n, D)
    norms: np.ndarray         # (n,) descriptor Euclidean norm
    is_virtual: np.ndarray    # (n,) bool


def _window_arrays(candidates: tuple[tuple[Candidate, ...], ...],
                   virtual: bool) -> tuple[FrameArrays, ...]:
    """Build every frame's arrays in one pass over the window, with the
    virtual slot's row (no center, a unit box, a zero descriptor) after
    each frame's candidates if ``virtual``; the frames are views into
    window-wide arrays."""
    # None marks a virtual slot
    slots = [c for frame in candidates for c in (*frame, *[None] * virtual)]
    n = len(slots)
    length = next((len(c.appearance) for c in slots if c is not None),
                  DEFAULT_DESCRIPTOR_LENGTH)
    blank = np.zeros(length)
    try:
        descriptors = np.array(
            [blank if c is None else c.appearance for c in slots],
            dtype=float).reshape(n, length)
    except ValueError:
        raise InputValidationError(
            "descriptor lengths differ within one window") from None
    centers = np.array([(math.nan, math.nan) if c is None else c.center
                        for c in slots], dtype=float).reshape(n, 2)
    box_list = [(0.0, 0.0, 1.0, 1.0) if c is None else c.box for c in slots]
    boxes = np.array(box_list, dtype=float).reshape(n, 4)
    diagonals = np.array([box_diagonal(box) for box in box_list], dtype=float)
    norms = np.linalg.norm(descriptors, axis=1)
    is_virtual = np.array([c is None for c in slots], dtype=bool)
    bounds = list(accumulate((len(frame) + virtual for frame in candidates),
                             initial=0))
    return tuple(
        FrameArrays(centers[a:b], boxes[a:b], diagonals[a:b], descriptors[a:b],
                    norms[a:b], is_virtual[a:b])
        for a, b in zip(bounds, bounds[1:]))


def descriptor_similarity(a: np.ndarray, norm_a: np.ndarray,
                          b: np.ndarray, norm_b: np.ndarray) -> np.ndarray:
    """Clipped squared cosine of broadcast descriptor rows ``a``, ``b``
    (shape (..., D), norms (...)), in [0, 1]: squaring suppresses the ~0
    cosine of unrelated descriptors and keeps same-target pairs near 1.
    Zero descriptors (file-based candidates) get a neutral 0.5."""
    return _clipped_square(np.einsum("...d,...d->...", a, b), norm_a, norm_b)


def _clipped_square(dots: np.ndarray, norm_a: np.ndarray,
                    norm_b: np.ndarray) -> np.ndarray:
    """:func:`descriptor_similarity` from the descriptors' dot products."""
    neutral = (norm_a < 1e-12) | (norm_b < 1e-12)
    cos = dots / np.where(neutral, 1.0, norm_a * norm_b)
    return np.where(neutral, 0.5, np.maximum(cos, 0.0) ** 2)


def _window_similarities(arrays: tuple[FrameArrays, ...], anchor: int,
                         virtual: bool) -> tuple[np.ndarray, ...]:
    """One (I_e, I_{e+1}) descriptor similarity table per pair of
    consecutive frames.  A virtual slot next to the anchor frame stands in
    for the anchor it continues: against that frame it scores each
    anchor's similarity to itself.  Each table's dot products are one
    matrix product."""
    tables = tuple(
        _clipped_square(a.descriptors @ b.descriptors.T, a.norms[:, None],
                        b.norms[None, :])
        for a, b in zip(arrays, arrays[1:]))
    if virtual:
        own = arrays[anchor]
        tables[anchor - 1][-1] = tables[anchor][:, -1] = descriptor_similarity(
            own.descriptors, own.norms, own.descriptors, own.norms)
    return tables


@dataclass(frozen=True)
class AssociationBatch:
    """A window of K+1 frames processed as one solver instance.  With
    ``virtual`` (tracking) every frame ends in a virtual slot, counted by
    ``sizes``, ``arrays`` and ``similarities``; such a window has K = 2,
    one anchor frame between its two neighbours."""

    frames: tuple[int, ...]
    candidates: tuple[tuple[Candidate, ...], ...]
    virtual: bool = False

    def __post_init__(self):
        if len(self.frames) < 3:
            raise RangeError(f"a window needs at least 3 frames, got {self.frames}")
        if any(b <= a for a, b in zip(self.frames, self.frames[1:])):
            raise ContractError(f"frames must be strictly increasing: {self.frames}")
        if len(self.candidates) != len(self.frames):
            raise ContractError(
                f"one candidate list per frame required: {len(self.frames)} "
                f"frames, {len(self.candidates)} lists")
        if self.virtual and self.K != 2:
            raise ContractError(
                f"a window with virtual slots must have K = 2, got {self.K}")

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
        return tuple(len(c) + self.virtual for c in self.candidates)

    @cached_property
    def arrays(self) -> tuple[FrameArrays, ...]:
        """The window's frames as arrays, built on first use and shared by
        the gate, hypothesis generation, virtual resolution and affinity."""
        return _window_arrays(self.candidates, self.virtual)

    @cached_property
    def similarities(self) -> tuple[np.ndarray, ...]:
        """Similarity tables, built on first use like ``arrays``."""
        return _window_similarities(self.arrays, self.anchor_position,
                                    self.virtual)


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
