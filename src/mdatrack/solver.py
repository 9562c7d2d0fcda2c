"""Differentiable assignment solver.

Two layers, each with a forward pass and an analytic backward pass:

* a rank-1 tensor-approximation power iteration that relaxes the hard
  assignment problem into per-pair soft assignment vectors, run on the
  pairwise affinity tensor held as its hypothesis list
  (:class:`HypothesisTensor`): the tensor has one non-zero entry per
  gated hypothesis and never exists in dense form.  The per-pair vectors
  are kept as one stacked vector over all pairs, so each contraction, for
  every pair at once, is a single bincount over the hypotheses' stacked
  coordinates, and
* an alternating row/column l1 normalization that pushes the soft
  assignment matrices toward the doubly-stochastic constraint set; a pair
  whose last row (column) is flagged as a virtual slot leaves that line
  unconstrained in its own direction.  Its history references each
  step's input; the backward pass reads each step's output from it
  instead of recomputing it.

Plus the binary cross-entropy training loss and a Hungarian-based
discretization, which takes the same virtual-line flags as the
normalization.  All functions are pure with respect to their inputs.  Each
forward pass returns its own state, :class:`PowerIterationState` or
:class:`NormalizationState`, which holds the history its backward pass
reads.
Nothing here builds the dense tensor: the dense assignment objective the
checks score against lives in :mod:`mdatrack.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    ContractError,
    DegenerateInputError,
    NumericError,
)

DEGENERACY_FLOOR = 1e-30
PROB_EPS = 1e-7


@dataclass
class NormStep:
    """One row or column normalization step, with what backward needs."""

    axis: str                      # 'row' or 'col'
    pre: list[np.ndarray]          # matrices entering the step (the previous output)
    divisors: list[np.ndarray]     # per-line sums actually divided by (1 where skipped)
    applied: list[np.ndarray]      # bool per line: was this line normalized


def _pair_flat_indices(tuples: np.ndarray, sizes) -> tuple[np.ndarray, ...]:
    """Flat pair indices of (N, K+1) 0-based candidate tuples: for each
    frame pair k, ``i_{k-1} * I_k + i_k`` (row-major over the I_{k-1} x I_k
    grid), the tuple's coordinate along mode k of the pairwise tensor."""
    return tuple(tuples[:, k - 1] * sizes[k] + tuples[:, k]
                 for k in range(1, len(sizes)))


def _segments(stacked: np.ndarray, offsets) -> list[np.ndarray]:
    """Per-pair views into a stacked vector."""
    return [stacked[a:b] for a, b in zip(offsets, offsets[1:])]


def _offsets(dims) -> tuple[int, ...]:
    """Start of each mode in the stacked vector, then its total length."""
    return tuple(accumulate(dims, initial=0))


@dataclass(frozen=True, eq=False)
class HypothesisTensor:
    """The K-order pairwise affinity tensor, held as its hypothesis list.

    Mode k runs over the flattened candidate pairs of frames k and k+1
    (dimension I_k * I_{k+1}).  Hypothesis h, the candidate tuple
    ``entries[h]``, holds ``values[h]`` at its pair coordinates; every other
    entry is zero.  The pair coordinates determine the tuple, so distinct
    tuples never share an entry.

    The solver keeps one vector per mode stacked end to end, mode k at
    ``offsets[k]``.  ``index[k * H + h]`` is hypothesis h's position in mode
    k of that stacked vector.  For each of the K-1 other modes of a row k,
    taken in increasing mode order, ``factor_rows[i]`` points at the same
    hypothesis' entry of the i-th other mode within a (K * H,) array laid
    out like ``index``, and ``factor_index[i]`` at its position in the
    stacked vector.
    """

    entries: np.ndarray                  # (H, K+1) 0-based candidate tuples
    values: np.ndarray                   # (H,) affinity of each hypothesis
    sizes: tuple[int, ...]               # candidates per frame, K+1 frames
    shape: tuple[int, ...] = field(init=False)     # I_{k-1} * I_k per mode
    offsets: tuple[int, ...] = field(init=False)   # K+1 mode starts and end
    index: np.ndarray = field(init=False, repr=False)          # (K*H,)
    stacked_values: np.ndarray = field(init=False, repr=False)  # (K*H,)
    factor_index: tuple[np.ndarray, ...] = field(init=False, repr=False)
    factor_rows: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.intp)
        values = np.asarray(self.values, dtype=float)
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) < 2:
            raise ContractError(f"need at least two frames, got sizes {sizes}")
        if entries.ndim != 2 or entries.shape[1] != len(sizes):
            raise ContractError(
                f"entries must be an (H, {len(sizes)}) index array, "
                f"got {entries.shape}")
        if values.shape != (len(entries),):
            raise ContractError(
                f"{len(entries)} hypotheses but values of shape {values.shape}")
        if np.any(entries < 0) or np.any(entries >= np.array(sizes)):
            raise ContractError(f"hypothesis index outside frame sizes {sizes}")
        H, K = len(entries), len(sizes) - 1
        shape = tuple(a * b for a, b in zip(sizes, sizes[1:]))
        offsets = _offsets(shape)
        index = np.concatenate([
            flat + offset
            for flat, offset in zip(_pair_flat_indices(entries, sizes), offsets)])
        # row k's i-th other mode is i + 1 up to row i, and i after it
        positions = np.arange(K * H, dtype=np.intp).reshape(K, H)
        factor_rows = tuple(positions[[i + (i >= k) for k in range(K)]].ravel()
                            for i in range(K - 1))
        for name, value in (("entries", entries), ("values", values),
                            ("sizes", sizes), ("shape", shape),
                            ("offsets", offsets), ("index", index),
                            ("stacked_values", np.concatenate([values] * K)),
                            ("factor_index", tuple(index[r] for r in factor_rows)),
                            ("factor_rows", factor_rows)):
            object.__setattr__(self, name, value)

    @property
    def pair_shapes(self) -> list[tuple[int, int]]:
        """(I_{k-1}, I_k) for each of the K frame pairs."""
        return list(zip(self.sizes, self.sizes[1:]))


@dataclass
class PowerIterationState:
    """The power iteration's run on ``tensor``, as its backward pass needs it.

    Iterates and slices are stacked vectors, every pair's vector end to end
    at ``tensor.offsets``; ``x``, ``iterate_history`` and ``slice_history``
    are per-pair views into them.
    """

    tensor: HypothesisTensor
    iterates: list[np.ndarray]              # stacked, N+1 of them
    slices: list[np.ndarray]                # stacked, N of them
    contraction_history: list[float]

    @property
    def x(self) -> list[np.ndarray]:
        return _segments(self.iterates[-1], self.tensor.offsets)

    def matrices(self) -> list[np.ndarray]:
        return [v.reshape(shape)
                for v, shape in zip(self.x, self.tensor.pair_shapes)]

    @property
    def iterate_history(self) -> list[list[np.ndarray]]:
        return [_segments(v, self.tensor.offsets) for v in self.iterates]

    @property
    def slice_history(self) -> list[list[np.ndarray]]:
        return [_segments(v, self.tensor.offsets) for v in self.slices]


@dataclass
class NormalizationState:
    """The normalized matrices plus the step history their backward pass
    reads, and the lines left out because they were zero at entry."""

    final: list[np.ndarray]
    norm_history: list[NormStep]
    skipped_lines: list[tuple[int, str, int]]

    def matrices(self) -> list[np.ndarray]:
        return list(self.final)


# ---------------------------------------------------------------------------
# Power iteration layer
# ---------------------------------------------------------------------------

def _product(columns) -> np.ndarray:
    out = columns[0]
    for column in columns[1:]:
        out = out * column
    return out


def _stacked(vectors: list[np.ndarray], dims, what: str) -> np.ndarray:
    """One float vector per mode, checked against the mode dimensions and
    stacked end to end."""
    if len(vectors) != len(dims):
        raise ContractError(f"{what} needs {len(dims)} vectors, got {len(vectors)}")
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    for k, v in enumerate(vectors):
        if v.shape != (dims[k],):
            raise ContractError(f"{what}[{k}] has shape {v.shape}, "
                                f"expected ({dims[k]},)")
    return np.concatenate(vectors)


def power_iteration_forward(tensor: HypothesisTensor,
                            num_iterations: int,
                            x0: list[np.ndarray] | None = None
                            ) -> PowerIterationState:
    """Run the rank-1 power iteration on the pairwise affinity tensor.

    Every assignment vector starts at all-ones (or at ``x0``).  One iteration
    updates all pairs synchronously from the same iterate:

        x_k <- x_k * (contraction of the tensor with the other vectors) / C

    where C is the full contraction, shared across pairs, so every updated
    vector sums to one.  The K vectors are kept as one stacked vector, so an
    iteration is one gather per other mode and a single weighted bincount
    over the stacked hypothesis index, which yields every pair's slice at
    once; the tensor is never formed.  All iterates, slices and normalizers
    are retained for the backward pass.
    """
    if num_iterations < 1:
        raise ContractError(f"need at least one iteration, got {num_iterations}")
    values = tensor.values
    # tolerance instead of a strict check so finite-difference probes around
    # structural zeros stay admissible
    if np.any(values < -1e-6):
        raise ContractError("affinity tensor must be nonnegative")
    if not np.all(np.isfinite(values)):
        raise NumericError("non-finite entries in the affinity tensor")

    offsets = tensor.offsets
    total, first = offsets[-1], offsets[1]
    x = (np.ones(total) if x0 is None
         else _stacked(x0, tensor.shape, "x0"))

    iterates = [x]
    contraction_history: list[float] = []
    all_slices: list[np.ndarray] = []

    for n in range(num_iterations):
        weights = tensor.stacked_values
        for factor in tensor.factor_index:
            weights = weights * x[factor]
        slices = np.bincount(tensor.index, weights, minlength=total)
        norm_const = float(x[:first] @ slices[:first])
        if not np.isfinite(norm_const):
            raise NumericError(f"non-finite contraction at iteration {n}")
        if norm_const < DEGENERACY_FLOOR:
            raise DegenerateInputError(
                f"all-zero contraction at iteration {n}; the affinity tensor "
                "has no mass on the current support")
        x = x * slices / norm_const
        if not np.all(np.isfinite(x)):
            first_bad = int(np.flatnonzero(~np.isfinite(x))[0])
            pair = int(np.searchsorted(offsets, first_bad, side="right")) - 1
            raise NumericError(f"non-finite iterate for pair {pair} at iteration {n}")
        iterates.append(x)
        contraction_history.append(norm_const)
        all_slices.append(slices)

    return PowerIterationState(tensor, iterates, all_slices, contraction_history)


def _cross_term(tensor: HypothesisTensor, gathered: np.ndarray,
                weighted: np.ndarray, i: int) -> np.ndarray:
    """For every pair k at once, the contraction of the tensor with the
    other pairs' iterates, the i-th of them scaled by its gradient: one
    weighted bincount over the stacked index, given the iterate and the
    gradient-scaled iterate gathered at it."""
    weights = tensor.stacked_values
    for j, factor in enumerate(tensor.factor_rows):
        weights = weights * (weighted if j == i else gathered)[factor]
    return np.bincount(tensor.index, weights, minlength=tensor.offsets[-1])


def power_iteration_backward(state: PowerIterationState,
                             d_x_final: list[np.ndarray]
                             ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Backward pass of the power iteration layer.

    Given the loss gradient at the final iterates, walks the iterations in
    reverse, accumulating the gradient of each hypothesis value (its tensor
    entry at coordinates j_1..j_K)

        dL/dv  +=  (prod_k x_k(n)[j_k]) / C(n) * sum_k (g_k(n+1)[j_k] - <x_k(n+1), g_k(n+1)>)

    and propagating the iterate gradients with the exact differential of the
    synchronous update (own-slice term, shared-normalizer term, and the
    cross-pair contraction terms).  Iterates and gradients are stacked over
    all pairs as in the forward pass: an iteration gathers the recorded
    iterate and the gradient once each at the stacked hypothesis index, and
    the cross terms of every pair take K-1 bincounts.  Returns the (H,)
    gradient of the hypothesis values and the gradient at the initial
    vectors.
    """
    tensor = state.tensor
    offsets = tensor.offsets
    K, H = len(tensor.shape), len(tensor.values)
    g = _stacked(d_x_final, tensor.shape, "gradient")

    num_iterations = len(state.contraction_history)
    d_values = np.zeros(H)

    for n in reversed(range(num_iterations)):
        xs = state.iterates[n]
        xs_next = state.iterates[n + 1]
        slices = state.slices[n]
        norm_const = state.contraction_history[n]

        beta = sum(float(xs_next[a:b] @ g[a:b])
                   for a, b in zip(offsets, offsets[1:]))
        gathered = xs[tensor.index]
        weighted = gathered * g[tensor.index]
        rows, weighted_rows = gathered.reshape(K, H), weighted.reshape(K, H)

        # value gradient contribution of this iteration: each hypothesis'
        # entry of -beta * (outer xs) + sum_k (outer xs, x_k scaled by g_k),
        # summed term by term so it rounds as the dense outer products do
        term = -beta * _product(rows)
        for k in range(K):
            term += _product([weighted_rows[m] if m == k else rows[m]
                              for m in range(K)])
        d_values += term / norm_const

        # iterate gradients one step earlier
        cross = sum(_cross_term(tensor, gathered, weighted, i)
                    for i in range(K - 1))
        g = slices / norm_const * (g - beta) + cross / norm_const

    return d_values, _segments(g, offsets)

# ---------------------------------------------------------------------------
# l1 normalization layer
# ---------------------------------------------------------------------------

def _virtual_flags(flags: list[bool] | None, K: int, what: str) -> list[bool]:
    """One flag per pair, all False when omitted: is the last row (or
    column) of that pair a virtual slot."""
    if flags is None:
        return [False] * K
    if len(flags) != K:
        raise ContractError(f"{what} needs {K} flags, got {len(flags)}")
    return flags


def _exempt_lines(sums: np.ndarray, virtual_last: bool) -> np.ndarray:
    """Lines a normalization direction never divides: a virtual last line
    and those whose sum is zero at entry."""
    exempt = sums == 0.0
    if virtual_last:
        exempt[-1] = True
    return exempt


def l1_normalize_forward(matrices: list[np.ndarray],
                         num_pairs: int,
                         virtual_rows: list[bool] | None = None,
                         virtual_cols: list[bool] | None = None
                         ) -> NormalizationState:
    """Alternating row/column l1 normalization, ``num_pairs`` (row, col)
    passes, starting with rows.

    When ``virtual_rows[k]`` is set, the last row of pair k is a virtual
    slot that is skipped during row normalization (it still takes part in
    column normalization), and symmetrically for ``virtual_cols``; these
    are the flags :func:`discretize` takes.  Lines that are identically
    zero at entry are excluded from normalization throughout and reported
    in ``skipped_lines``; a zero sum on any other line raises.  Each step
    divides every matrix into a new one, so the history references the
    matrices entering each step instead of copying them.
    """
    K = len(matrices)
    virtual_rows = _virtual_flags(virtual_rows, K, "virtual_rows")
    virtual_cols = _virtual_flags(virtual_cols, K, "virtual_cols")
    if num_pairs < 0:
        raise ContractError("iteration pair count must be >= 0")
    mats = []
    for k, m in enumerate(matrices):
        arr = np.asarray(m, dtype=float).copy()
        if arr.ndim != 2:
            raise ContractError(f"pair {k} is not a matrix")
        if np.any(arr < 0):
            raise ContractError(f"pair {k} carries negative entries")
        mats.append(arr)

    skipped: list[tuple[int, str, int]] = []
    applied = {"row": [], "col": []}
    for k, m in enumerate(mats):
        row_sums, col_sums = m.sum(axis=1), m.sum(axis=0)
        skipped.extend((k, "row", int(i)) for i in np.flatnonzero(row_sums == 0.0))
        skipped.extend((k, "col", int(j)) for j in np.flatnonzero(col_sums == 0.0))
        applied["row"].append(~_exempt_lines(row_sums, virtual_rows[k]))
        applied["col"].append(~_exempt_lines(col_sums, virtual_cols[k]))

    history: list[NormStep] = []
    for _ in range(num_pairs):
        for axis, line_axis in (("row", 1), ("col", 0)):
            pre = mats
            divisors = [np.where(lines, m.sum(axis=line_axis), 1.0)
                        for m, lines in zip(pre, applied[axis])]
            for k, div in enumerate(divisors):
                # entries stay nonnegative, so only an exact zero sum is
                # degenerate; tiny positive sums normalize fine (entries
                # never exceed their sum)
                if np.count_nonzero(div) < div.size:
                    raise DegenerateInputError(
                        f"pair {k}: {axis} {int(np.flatnonzero(div == 0.0)[0])} "
                        "lost all mass during normalization")
            mats = [m / (div[:, None] if line_axis else div)
                    for m, div in zip(pre, divisors)]
            history.append(NormStep(axis, pre, divisors, applied[axis]))

    return NormalizationState(mats, history, skipped)


def l1_normalize_backward(state: NormalizationState,
                          d_x_final: list[np.ndarray]) -> list[np.ndarray]:
    """Backward pass of the normalization layer.

    Walks the recorded steps in reverse.  For a normalized line with
    post-step values u and pre-step sum s, the gradient maps as
    g_pre = g_post / s - <u, g_post> / s; skipped lines, whose divisor is 1
    and whose inner product is taken as zero, pass the gradient through
    unchanged.  Each step's output u is read from the history (the next
    step's input, or the final matrices), never recomputed.
    """
    final = state.final
    K = len(final)
    if len(d_x_final) != K:
        raise ContractError(f"need {K} gradients, got {len(d_x_final)}")
    g = []
    for k in range(K):
        gk = np.asarray(d_x_final[k], dtype=float)
        if gk.shape != final[k].shape:
            raise ContractError(
                f"gradient {k} has shape {gk.shape}, expected {final[k].shape}")
        g.append(gk)

    history = state.norm_history
    outputs = [step.pre for step in history[1:]] + [final]
    for step, post in zip(reversed(history), reversed(outputs)):
        line_axis = 1 if step.axis == "row" else 0
        for k in range(K):
            div = step.divisors[k]
            inner = np.where(step.applied[k],
                             (post[k] * g[k]).sum(axis=line_axis), 0.0)
            if line_axis:
                g[k] = g[k] / div[:, None] - (inner / div)[:, None]
            else:
                g[k] = g[k] / div - inner / div
    return g


# ---------------------------------------------------------------------------
# Loss and discretization
# ---------------------------------------------------------------------------

def bce_loss(predicted: list[np.ndarray],
             target: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    """Summed binary cross entropy over all assignment entries.

    Predictions are clamped to [eps, 1-eps] before the logs; the returned
    gradient is that of the clamped expression, i.e. exactly zero where the
    clamp is active.
    """
    if len(predicted) != len(target):
        raise ContractError("prediction/target pair counts differ")
    loss = 0.0
    grads = []
    for k, (p, t) in enumerate(zip(predicted, target)):
        p = np.asarray(p, dtype=float)
        t = np.asarray(t, dtype=float)
        if p.shape != t.shape:
            raise ContractError(
                f"pair {k}: prediction shape {p.shape} vs target {t.shape}")
        clamped = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
        loss -= float(np.sum(t * np.log(clamped) + (1.0 - t) * np.log1p(-clamped)))
        inside = (p >= PROB_EPS) & (p <= 1.0 - PROB_EPS)
        grad = np.where(inside, (clamped - t) / (clamped * (1.0 - clamped)), 0.0)
        grads.append(grad)
    return loss, grads


def discretize(matrices: list[np.ndarray],
               virtual_rows: list[bool] | None = None,
               virtual_cols: list[bool] | None = None) -> list[np.ndarray]:
    """Binarize soft assignments pair by pair.

    Real rows/columns get a maximum-weight bipartite matching.  When the last
    column is a virtual slot, a matched row whose weight falls strictly below
    its virtual entry is reassigned to the virtual column, and unmatched real
    rows go there too; symmetrically, real columns left without a partner are
    attached to the virtual row.  Virtual slots may absorb several partners.
    """
    K = len(matrices)
    virtual_rows = _virtual_flags(virtual_rows, K, "virtual_rows")
    virtual_cols = _virtual_flags(virtual_cols, K, "virtual_cols")
    result = []
    for k, m in enumerate(matrices):
        m = np.asarray(m, dtype=float)
        n_rows, n_cols = m.shape
        real_rows = n_rows - 1 if virtual_rows[k] else n_rows
        real_cols = n_cols - 1 if virtual_cols[k] else n_cols
        out = np.zeros((n_rows, n_cols))
        taken_cols: set[int] = set()
        if real_rows > 0 and real_cols > 0:
            weights = m[:real_rows, :real_cols]
            rows, cols = linear_sum_assignment(-weights)
            for r, c in zip(rows, cols):
                if virtual_cols[k] and m[r, n_cols - 1] > weights[r, c]:
                    out[r, n_cols - 1] = 1.0
                else:
                    out[r, c] = 1.0
                    taken_cols.add(int(c))
            matched_rows = set(int(r) for r in rows)
        else:
            matched_rows = set()
        if virtual_cols[k]:
            for r in range(real_rows):
                if r not in matched_rows and out[r].sum() == 0.0:
                    out[r, n_cols - 1] = 1.0
        if virtual_rows[k]:
            for c in range(real_cols):
                if c not in taken_cols:
                    out[n_rows - 1, c] = 1.0
        result.append(out)
    return result

