"""Per-detection restatement of the virtual-candidate grid search, the
reference the separable search in ``pipeline.resolve_virtuals`` is tested
against.

The score grid of every anchor is built in full: the prior Gaussian at the
extrapolated point, then one similarity-weighted Gaussian per detection
added in detection order on an anchors x 17 x 17 buffer.  It resolves the
same centers by the same row-major first-maximum rule.
"""

import numpy as np

from mdatrack.affinity import AffinityProviderParams
from mdatrack.types import AssociationBatch, descriptor_similarity


def _grid_gaussian(dx2: np.ndarray, dy2: np.ndarray, denom: float,
                   out: np.ndarray) -> np.ndarray:
    """exp(-(dx2 + dy2) / denom) over each anchor's search grid, written to
    ``out`` (anchors, 17 rows, 17 columns) from per-column ``dx2`` and
    per-row ``dy2`` (anchors, 17)."""
    np.add(dy2[:, :, None], dx2[:, None, :], out=out)
    np.divide(out, -denom, out=out)
    return np.exp(out, out=out)


def resolve_virtuals_reference(batch: AssociationBatch,
                               params: AffinityProviderParams,
                               anchor_velocities: dict[int, tuple[float, float]] | None = None,
                               ) -> dict[int, np.ndarray]:
    """Fix the adjacent-frame virtual centers, one location per anchor.

    For each real anchor the virtual in frame position ``pos`` resolves to
    the argmax of a local search score around the anchor's constant-velocity
    extrapolation: a Gaussian prior at the extrapolated point plus
    appearance-similarity-weighted Gaussians at each real detection of that
    frame.  The grid spans one box diagonal at a step of diagonal / 8 and is
    scanned row-major; ties resolve to the first maximum.  Returns
    {frame position: (I_anchor, 2) resolved centers}, one row per anchor
    slot, NaN for the virtual anchor slot.
    """
    anchor_velocities = anchor_velocities or {}
    anchor_pos = batch.anchor_position
    anchors = batch.arrays[anchor_pos]
    real = np.flatnonzero(~anchors.is_virtual)
    denom = 2.0 * params.position_scale * params.position_scale
    velocity = np.array([anchor_velocities.get(int(slot), (0.0, 0.0))
                         for slot in real], dtype=float).reshape(-1, 2)
    origin = anchors.centers[real]
    offsets = np.arange(-8, 9) * (anchors.diagonals[real] / 8.0)[:, None]
    resolved: dict[int, np.ndarray] = {}

    for pos, frame in enumerate(batch.arrays):
        if (pos == anchor_pos or not len(frame.is_virtual)
                or not frame.is_virtual[-1]):
            continue
        dt = batch.frames[pos] - batch.frames[anchor_pos]
        px = origin[:, 0] + velocity[:, 0] * dt
        py = origin[:, 1] + velocity[:, 1] * dt
        grid_x = px[:, None] + offsets            # (anchors, 17) columns
        grid_y = py[:, None] + offsets            # (anchors, 17) rows
        scores = _grid_gaussian((grid_x - px[:, None]) ** 2,
                                (grid_y - py[:, None]) ** 2, denom,
                                np.empty((len(real), 17, 17)))

        detections = np.flatnonzero(~frame.is_virtual)
        weights = descriptor_similarity(
            anchors.descriptors[real, None, :], anchors.norms[real, None],
            frame.descriptors[None, detections, :], frame.norms[None, detections])
        spots = frame.centers[detections]
        dx2 = (grid_x[:, None, :] - spots[:, 0, None]) ** 2   # (anchors, M, 17)
        dy2 = (grid_y[:, None, :] - spots[:, 1, None]) ** 2
        buffer = np.empty_like(scores)
        # one detection at a time keeps memory at O(anchors * 289) and the
        # sum in detection order; a zero weight (negative cosine) adds
        # exactly nothing, so only the anchors a detection attracts are scored
        for m in range(len(detections)):
            rows = np.flatnonzero(weights[:, m])
            term = _grid_gaussian(dx2[rows, m], dy2[rows, m], denom,
                                  buffer[:len(rows)])
            term *= weights[rows, m, None, None]
            scores[rows] += term
        scores = scores.reshape(len(real), 17 * 17)
        row, col = np.divmod(np.argmax(scores, axis=1), 17)
        each = np.arange(len(real))
        centers = np.full((len(anchors.is_virtual), 2), np.nan)
        centers[real, 0] = grid_x[each, col]
        centers[real, 1] = grid_y[each, row]
        resolved[pos] = centers
    return resolved
