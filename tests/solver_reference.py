"""Per-mode restatement of the power-iteration and l1-normalization layers,
the reference the stacked solver is tested against bit for bit.

Each mode of the pairwise tensor keeps its own vector: every contraction is
one weighted bincount per mode, the normalization copies every matrix at
each step, and its backward pass recomputes each step's output from the
recorded input.  Every sum runs in the same order as in the stacked solver,
so both give exactly equal arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mdatrack.errors import ContractError, DegenerateInputError, NumericError
from mdatrack.solver import DEGENERACY_FLOOR, HypothesisTensor


@dataclass
class NormStep:
    """One row or column normalization step, with what backward needs."""

    axis: str                      # 'row' or 'col'
    pre: list[np.ndarray]          # matrices entering the step
    divisors: list[np.ndarray]     # per-line sums actually divided by (1 where skipped)
    applied: list[np.ndarray]      # bool per line: was this line normalized


@dataclass
class ReferenceState:
    """Per-pair soft assignments plus the history the backward passes need."""

    x: list[np.ndarray]
    shapes: list[tuple[int, int]]
    tensor: HypothesisTensor | None = None
    iterate_history: list[list[np.ndarray]] | None = None
    contraction_history: list[float] | None = None
    slice_history: list[list[np.ndarray]] | None = None
    norm_history: list[NormStep] | None = None
    skipped_lines: list[tuple[int, str, int]] = field(default_factory=list)

    def matrices(self) -> list[np.ndarray]:
        return [v.reshape(shape) for v, shape in zip(self.x, self.shapes)]


def _pair_flat_indices(tuples: np.ndarray, sizes) -> tuple[np.ndarray, ...]:
    """Flat pair indices of (N, K+1) 0-based candidate tuples: for each
    frame pair k, ``i_{k-1} * I_k + i_k`` (row-major over the I_{k-1} x I_k
    grid), the tuple's coordinate along mode k of the pairwise tensor."""
    return tuple(tuples[:, k - 1] * sizes[k] + tuples[:, k]
                 for k in range(1, len(sizes)))


def _gather(vectors: list[np.ndarray], flat) -> list[np.ndarray]:
    """Each mode's vector read at the hypotheses' coordinates."""
    return [v[f] for v, f in zip(vectors, flat)]


def _product(columns: list[np.ndarray]) -> np.ndarray:
    out = columns[0]
    for column in columns[1:]:
        out = out * column
    return out


def _contract(tensor: HypothesisTensor, flat, gathered: list[np.ndarray],
              free_mode: int) -> np.ndarray:
    """Contract the tensor with one vector per mode except ``free_mode``,
    given each mode's vector gathered at the hypotheses: one weighted
    bincount over the hypotheses' mode coordinates."""
    others = [column for m, column in enumerate(gathered) if m != free_mode]
    return np.bincount(flat[free_mode],
                       _product([tensor.values] + others),
                       minlength=tensor.shape[free_mode])


def power_iteration_forward(tensor: HypothesisTensor,
                            num_iterations: int,
                            x0: list[np.ndarray] | None = None) -> ReferenceState:
    """x_k <- x_k * (contraction with the other vectors) / C, all pairs
    synchronously from the same iterate, one bincount per mode."""
    if num_iterations < 1:
        raise ContractError(f"need at least one iteration, got {num_iterations}")
    values = tensor.values
    if np.any(values < -1e-6):
        raise ContractError("affinity tensor must be nonnegative")
    if not np.all(np.isfinite(values)):
        raise NumericError("non-finite entries in the affinity tensor")

    flat = _pair_flat_indices(tensor.entries, tensor.sizes)
    dims = tensor.shape
    K = len(dims)
    if x0 is None:
        x = [np.ones(d) for d in dims]
    else:
        if len(x0) != K:
            raise ContractError(f"x0 needs {K} vectors, got {len(x0)}")
        x = [np.asarray(v, dtype=float).copy() for v in x0]
        for k, v in enumerate(x):
            if v.shape != (dims[k],):
                raise ContractError(f"x0[{k}] has wrong length")

    iterate_history = [[v.copy() for v in x]]
    contraction_history: list[float] = []
    slice_history: list[list[np.ndarray]] = []

    for n in range(num_iterations):
        gathered = _gather(x, flat)
        slices = [_contract(tensor, flat, gathered, k) for k in range(K)]
        norm_const = float(x[0] @ slices[0])
        if not np.isfinite(norm_const):
            raise NumericError(f"non-finite contraction at iteration {n}")
        if norm_const < DEGENERACY_FLOOR:
            raise DegenerateInputError(
                f"all-zero contraction at iteration {n}; the affinity tensor "
                "has no mass on the current support")
        x = [x[k] * slices[k] / norm_const for k in range(K)]
        for k in range(K):
            if not np.all(np.isfinite(x[k])):
                raise NumericError(f"non-finite iterate for pair {k} at iteration {n}")
        iterate_history.append([v.copy() for v in x])
        contraction_history.append(norm_const)
        slice_history.append(slices)

    return ReferenceState(
        x=[v.copy() for v in x],
        shapes=tensor.pair_shapes,
        tensor=tensor,
        iterate_history=iterate_history,
        contraction_history=contraction_history,
        slice_history=slice_history,
    )


def power_iteration_backward(state: ReferenceState,
                             d_x_final: list[np.ndarray]
                             ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Value gradient and initial-vector gradient, walking the iterations in
    reverse with per-mode gathers and one bincount per cross term."""
    tensor = state.tensor
    flat = _pair_flat_indices(tensor.entries, tensor.sizes)
    K = len(state.x)
    g = [np.asarray(v, dtype=float).copy() for v in d_x_final]

    num_iterations = len(state.contraction_history)
    d_values = np.zeros(len(tensor.values))

    for n in reversed(range(num_iterations)):
        xs = state.iterate_history[n]
        xs_next = state.iterate_history[n + 1]
        slices = state.slice_history[n]
        norm_const = state.contraction_history[n]

        beta = sum(float(xs_next[k] @ g[k]) for k in range(K))
        gathered = _gather(xs, flat)
        weighted = [x * gk for x, gk in zip(gathered, _gather(g, flat))]

        def swap(m):
            # the gathered iterates with mode m's scaled by its gradient
            return gathered[:m] + [weighted[m]] + gathered[m + 1:]

        term = -beta * _product(gathered)
        for k in range(K):
            term += _product(swap(k))
        d_values += term / norm_const

        new_g = []
        for k in range(K):
            cross = sum(_contract(tensor, flat, swap(m), k)
                        for m in range(K) if m != k)
            new_g.append(slices[k] / norm_const * (g[k] - beta) + cross / norm_const)
        g = new_g

    return d_values, g


def l1_normalize_forward(matrices: list[np.ndarray],
                         num_pairs: int,
                         virtual_rows: list[bool] | None = None,
                         virtual_cols: list[bool] | None = None
                         ) -> ReferenceState:
    """Alternating row/column l1 normalization that copies every matrix at
    each step and rebuilds each line's exemptions from index sets: the
    flagged virtual last line plus the lines that are zero at entry."""
    mats = [np.asarray(m, dtype=float).copy() for m in matrices]
    virtual_rows = virtual_rows or [False] * len(mats)
    virtual_cols = virtual_cols or [False] * len(mats)
    rows_column_only = [{m.shape[0] - 1} if v else set()
                        for m, v in zip(mats, virtual_rows)]
    cols_row_only = [{m.shape[1] - 1} if v else set()
                     for m, v in zip(mats, virtual_cols)]

    skipped: list[tuple[int, str, int]] = []
    zero_rows: list[set[int]] = []
    zero_cols: list[set[int]] = []
    for k, m in enumerate(mats):
        zr = {int(i) for i in np.flatnonzero(m.sum(axis=1) == 0.0)}
        zc = {int(j) for j in np.flatnonzero(m.sum(axis=0) == 0.0)}
        zero_rows.append(zr)
        zero_cols.append(zc)
        skipped.extend((k, "row", i) for i in sorted(zr))
        skipped.extend((k, "col", j) for j in sorted(zc))

    history: list[NormStep] = []
    for _ in range(num_pairs):
        for axis in ("row", "col"):
            pre = [m.copy() for m in mats]
            divisors = []
            applied_flags = []
            for k, m in enumerate(mats):
                if axis == "row":
                    sums = m.sum(axis=1)
                    exempt = rows_column_only[k] | zero_rows[k]
                else:
                    sums = m.sum(axis=0)
                    exempt = cols_row_only[k] | zero_cols[k]
                applied = np.ones(sums.shape, dtype=bool)
                for idx in exempt:
                    applied[idx] = False
                bad = np.flatnonzero(applied & (sums <= 0.0))
                if bad.size:
                    raise DegenerateInputError(
                        f"pair {k}: {axis} {int(bad[0])} lost all mass "
                        "during normalization")
                div = np.where(applied, sums, 1.0)
                if axis == "row":
                    mats[k] = m / div[:, None]
                else:
                    mats[k] = m / div[None, :]
                divisors.append(div)
                applied_flags.append(applied)
            history.append(NormStep(axis, pre, divisors, applied_flags))

    return ReferenceState(
        x=[m.reshape(-1) for m in mats],
        shapes=[m.shape for m in mats],
        norm_history=history,
        skipped_lines=skipped,
    )


def l1_normalize_backward(state: ReferenceState,
                          d_x_final: list[np.ndarray]) -> list[np.ndarray]:
    """Walks the recorded steps in reverse, recomputing each step's output
    as ``pre / div`` and keeping exempt lines with a 2-D ``np.where``."""
    K = len(state.shapes)
    g = [np.asarray(v, dtype=float).copy() for v in d_x_final]

    for step in reversed(state.norm_history):
        for k in range(K):
            pre = step.pre[k]
            div = step.divisors[k]
            applied = step.applied[k]
            if step.axis == "row":
                post = pre / div[:, None]
                inner = (post * g[k]).sum(axis=1)
                new = g[k] / div[:, None] - (inner / div)[:, None]
                g[k] = np.where(applied[:, None], new, g[k])
            else:
                post = pre / div[None, :]
                inner = (post * g[k]).sum(axis=0)
                new = g[k] / div[None, :] - (inner / div)[None, :]
                g[k] = np.where(applied[None, :], new, g[k])
    return g
