"""Per-anchor restatement of the virtual-candidate placement, the reference
``pipeline.resolve_virtuals`` is tested against.

It reads each anchor's ``Candidate`` directly instead of the window's
arrays, and places the virtual it continues in each adjacent frame at the
anchor's constant-velocity prediction, one anchor at a time.
"""

import math

import numpy as np

from mdatrack.types import AssociationBatch


def resolve_virtuals_reference(batch: AssociationBatch,
                               anchor_velocities: dict[int, tuple[float, float]],
                               ) -> dict[int, np.ndarray]:
    """Fix the adjacent-frame virtual centers, one location per anchor.

    The virtual a real anchor continues in frame position ``pos`` sits at
    its center plus velocity times the frame gap, with zero velocity for an
    anchor missing from ``anchor_velocities``.  Returns {frame position:
    (I_anchor, 2) centers}, one row per anchor slot, NaN for the virtual
    anchor slot, which is the anchor frame's last; a window without virtual
    slots has none.
    """
    if not batch.virtual:
        return {}
    resolved: dict[int, np.ndarray] = {}
    for pos in (0, 2):
        dt = batch.frames[pos] - batch.frames[1]
        rows = []
        for slot, anchor in enumerate(batch.candidates[1]):
            vx, vy = anchor_velocities.get(slot, (0.0, 0.0))
            rows.append((anchor.center[0] + vx * dt,
                         anchor.center[1] + vy * dt))
        rows.append((math.nan, math.nan))
        resolved[pos] = np.array(rows, dtype=float)
    return resolved
