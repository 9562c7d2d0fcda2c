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
  assignment matrices toward the doubly-stochastic constraint set; in a
  window with virtual slots every pair's last row and last column is one,
  left unconstrained in its own direction.  The matrices are likewise kept as
  one stacked vector (:class:`MatrixLayout`), so each step's exemptions,
  zero check and divide, and each backward step's update, are one call
  for all pairs.  Only the line sums run pair by pair, one reduction over
  each pair's matrix: numpy sums long lines pairwise, and a grouped sum
  over all pairs would round differently.  Every step's output is kept in
  one buffer, which the backward pass reads instead of recomputing it.

Plus the binary cross-entropy training loss and a discretization by
minimum-cost assignment (:func:`mdatrack.assignment.linear_sum_assignment`),
which takes the same window flag as the normalization.  All
functions are pure with respect to their inputs.  Each forward pass returns
its own state, :class:`PowerIterationState` or :class:`NormalizationState`,
which holds the history its backward pass reads.
Nothing here builds the dense tensor: the dense assignment objective the
tests score against lives in the test suite's ``oracle_reference``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .assignment import linear_sum_assignment
from .errors import (
    ContractError,
    DegenerateInputError,
    NumericError,
)

DEGENERACY_FLOOR = 1e-30
PROB_EPS = 1e-7


def _pair_flat_indices(tuples: np.ndarray, sizes) -> tuple[np.ndarray, ...]:
    """Flat pair indices of (N, K+1) 0-based candidate tuples: for each
    frame pair k, ``i_{k-1} * I_k + i_k`` (row-major over the I_{k-1} x I_k
    grid), the tuple's coordinate along mode k of the pairwise tensor."""
    return tuple(tuples[:, k - 1] * sizes[k] + tuples[:, k]
                 for k in range(1, len(sizes)))


def _segments(stacked: np.ndarray, offsets) -> list[np.ndarray]:
    """Per-pair views into the last axis of a stacked array."""
    return [stacked[..., a:b] for a, b in zip(offsets, offsets[1:])]


def _locate(offsets, position: int) -> tuple[int, int]:
    """The pair a stacked position belongs to, and its index within it."""
    k = int(np.searchsorted(offsets, position, side="right")) - 1
    return k, int(position) - offsets[k]


def _offsets(dims) -> tuple[int, ...]:
    """Start of each mode in the stacked vector, then its total length."""
    return tuple(accumulate(dims, initial=0))


def _hypothesis_values(values, count: int) -> np.ndarray:
    """One float per hypothesis."""
    values = np.asarray(values, dtype=float)
    if values.shape != (count,):
        raise ContractError(
            f"{count} hypotheses but values of shape {values.shape}")
    return values


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
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) < 2:
            raise ContractError(f"need at least two frames, got sizes {sizes}")
        if entries.ndim != 2 or entries.shape[1] != len(sizes):
            raise ContractError(
                f"entries must be an (H, {len(sizes)}) index array, "
                f"got {entries.shape}")
        values = _hypothesis_values(self.values, len(entries))
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

    def with_values(self, values) -> "HypothesisTensor":
        """The same hypotheses holding ``values``: the new tensor shares
        ``entries``, ``sizes`` and the stacked layout with this one and
        rebuilds only ``stacked_values``."""
        values = _hypothesis_values(values, len(self.entries))
        tensor = copy.copy(self)
        object.__setattr__(tensor, "values", values)
        object.__setattr__(tensor, "stacked_values",
                           np.concatenate([values] * len(self.shape)))
        return tensor

    @property
    def pair_shapes(self) -> list[tuple[int, int]]:
        """(I_{k-1}, I_k) for each of the K frame pairs."""
        return list(zip(self.sizes, self.sizes[1:]))


@dataclass
class PowerIterationState:
    """The power iteration's run on ``tensor``, as its backward pass needs it.

    Iterates and slices are stacked vectors, every pair's vector end to end
    at ``tensor.offsets``; ``x`` holds per-pair views into the last iterate.
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
            pair, _ = _locate(offsets, np.flatnonzero(~np.isfinite(x))[0])
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

def _pair_matrices(matrices, virtual: bool) -> list[np.ndarray]:
    """One float matrix per pair; with virtual slots each pair ends in a
    virtual row and a virtual column, so it needs a row and a column."""
    mats = [np.asarray(m, dtype=float) for m in matrices]
    for k, m in enumerate(mats):
        if m.ndim != 2:
            raise ContractError(f"pair {k} is not a matrix")
        if virtual and 0 in m.shape:
            raise ContractError(f"pair {k} of shape {m.shape} has no "
                                "virtual last row and column")
    return mats


_AXES = ("row", "col")
_REDUCE_AXIS = {"row": 1, "col": 0}


@dataclass(frozen=True, eq=False)
class MatrixLayout:
    """K matrices stored row-major end to end in one stacked vector.

    Pair k's entries sit at ``offsets[k]:offsets[k + 1]``.  The lines of one
    direction are stacked the same way: ``lines["row"]`` (``lines["col"]``)
    holds the start of each pair's rows (columns) in a stacked per-line
    vector, then their total, and ``line_of[axis][e]`` is the stacked line
    of entry e.
    """

    shapes: tuple[tuple[int, int], ...]
    offsets: tuple[int, ...] = field(init=False)
    lines: dict[str, tuple[int, ...]] = field(init=False)
    line_of: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        offsets = _offsets(r * c for r, c in self.shapes)
        lines = {"row": _offsets(r for r, _ in self.shapes),
                 "col": _offsets(c for _, c in self.shapes)}
        # each pair's entries, row-major: (row, column) = divmod(entry, columns)
        local = [np.divmod(np.arange(r * c), c) for r, c in self.shapes]
        line_of = {axis: np.concatenate(
                       [np.empty(0, dtype=np.intp)]
                       + [index[d] + start for index, start in zip(local, lines[axis])])
                   for d, axis in enumerate(_AXES)}
        for name, value in (("offsets", offsets), ("lines", lines),
                            ("line_of", line_of)):
            object.__setattr__(self, name, value)

    def matrices(self, stacked: np.ndarray) -> list[np.ndarray]:
        """Per-pair matrix views into the last axis of a stacked array."""
        lead = stacked.shape[:-1]
        return [v.reshape(lead + shape)
                for v, shape in zip(_segments(stacked, self.offsets),
                                    self.shapes)]


def _line_sums(mats: list[np.ndarray], outs: list[np.ndarray],
               axis: str) -> None:
    """Write each pair's line sums in direction ``axis`` into its ``outs``
    view.

    One reduction per pair over its 2-D matrix, never one grouped sum over
    all pairs: numpy sums a contiguous line of eight or more entries
    pairwise (so the rows of a wide matrix and the column of a one-column
    matrix), while a grouped sum (bincount, reduceat) adds sequentially and
    rounds differently.
    """
    reduce_axis = _REDUCE_AXIS[axis]
    for m, out in zip(mats, outs):
        np.add.reduce(m, reduce_axis, None, out)


@dataclass
class NormalizationState:
    """The normalization's run, stacked over all pairs as ``layout`` lays
    them out.

    ``stages[0]`` is the input and ``stages[s + 1]`` the output of step s,
    rows and columns alternating; ``divisors[axis][n]`` holds the line sums
    the n-th step of that direction divided by, and ``exempt[axis]`` indexes
    the lines it never divides.  ``skipped_lines`` lists the lines left out
    because they were zero at entry.  ``matrices()`` gives per-pair views
    into the last stage.
    """

    layout: MatrixLayout
    stages: np.ndarray
    divisors: dict[str, np.ndarray]
    exempt: dict[str, np.ndarray]
    skipped_lines: list[tuple[int, str, int]]

    def matrices(self) -> list[np.ndarray]:
        return self.layout.matrices(self.stages[-1])


def l1_normalize_forward(matrices: list[np.ndarray],
                         num_pairs: int,
                         virtual: bool = False) -> NormalizationState:
    """Alternating row/column l1 normalization, ``num_pairs`` (row, col)
    passes, starting with rows.

    When ``virtual`` is set, every pair's last row and last column are
    virtual slots: the last row is skipped during row normalization (it
    still takes part in column normalization), and symmetrically the last
    column; this is the flag :func:`discretize` takes.  Lines that are
    identically zero at entry are excluded from normalization throughout
    and reported in ``skipped_lines``; a zero sum on any other line raises,
    and so does a non-finite or negative entry.

    The matrices are copied once into one stacked vector
    (:class:`MatrixLayout`), and every step works on all pairs at once: the
    line sums (one reduction per pair, see :func:`_line_sums`), the exempt
    lines' divisors set to 1, one zero check, and one divide by the divisor
    gathered at each entry's line.  Step s writes its output to row s + 1
    of the ``stages`` buffer, which is the history the backward pass reads.
    """
    mats = _pair_matrices(matrices, virtual)
    shapes = tuple(m.shape for m in mats)
    if num_pairs < 0:
        raise ContractError("iteration pair count must be >= 0")
    layout = MatrixLayout(shapes)
    stages = np.empty((2 * num_pairs + 1, layout.offsets[-1]))
    stage_mats = layout.matrices(stages)
    for m, stage in zip(mats, stage_mats):
        stage[0] = m
    entry = stages[0]
    if not np.isfinite(entry).all():
        k, _ = _locate(layout.offsets, np.flatnonzero(~np.isfinite(entry))[0])
        raise NumericError(f"pair {k} carries non-finite entries")
    if (entry < 0).any():
        k, _ = _locate(layout.offsets, np.flatnonzero(entry < 0)[0])
        raise ContractError(f"pair {k} carries negative entries")

    divisors, exempt, skipped = {}, {}, []
    for axis in _AXES:
        lines = layout.lines[axis]
        # only whether a sum is zero matters here, and with nonnegative
        # finite entries it is exactly when every entry is zero, whatever
        # the summation order
        exempt_lines = np.bincount(layout.line_of[axis], entry,
                                   minlength=lines[-1]) == 0.0
        skipped += [(k, axis, i) for k, i in
                    (_locate(lines, line) for line in np.flatnonzero(exempt_lines))]
        if virtual:
            exempt_lines[np.array(lines[1:]) - 1] = True
        exempt[axis] = np.flatnonzero(exempt_lines)
        divisors[axis] = np.empty((num_pairs, lines[-1]))
    skipped.sort(key=lambda line: (line[0], line[1] == "col"))  # pair by pair

    div_views = {axis: _segments(divisors[axis], layout.lines[axis])
                 for axis in _AXES}
    for s in range(2 * num_pairs):
        axis, n = _AXES[s % 2], s // 2
        div = divisors[axis][n]
        _line_sums([m[s] for m in stage_mats],
                   [d[n] for d in div_views[axis]], axis)
        div[exempt[axis]] = 1.0
        # entries stay nonnegative, so only an exact zero sum is
        # degenerate; tiny positive sums normalize fine (entries never
        # exceed their sum)
        if np.count_nonzero(div) < div.size:
            k, line = _locate(layout.lines[axis], np.flatnonzero(div == 0.0)[0])
            raise DegenerateInputError(
                f"pair {k}: {axis} {line} lost all mass during normalization")
        np.divide(stages[s], div[layout.line_of[axis]], out=stages[s + 1])

    return NormalizationState(layout, stages, divisors, exempt, skipped)


def l1_normalize_backward(state: NormalizationState,
                          d_x_final: list[np.ndarray]) -> list[np.ndarray]:
    """Backward pass of the normalization layer.

    Walks the recorded steps in reverse.  For a normalized line with
    post-step values u and pre-step sum s, the gradient maps as
    g_pre = g_post / s - <u, g_post> / s; skipped lines, whose divisor is 1
    and whose inner product is set to zero, pass the gradient through
    unchanged.  Each step's output u is read from the recorded stages, never
    recomputed.  The gradient is one stacked vector laid out like the
    stages, so a step is one product, the line inner products (one
    reduction per pair, as in the forward pass) and one update for all
    pairs; the result is returned as per-pair views.
    """
    layout = state.layout
    K = len(layout.shapes)
    if len(d_x_final) != K:
        raise ContractError(f"need {K} gradients, got {len(d_x_final)}")
    g = np.empty(layout.offsets[-1])
    for k, (gk, view) in enumerate(zip(d_x_final, layout.matrices(g))):
        gk = np.asarray(gk, dtype=float)
        if gk.shape != view.shape:
            raise ContractError(
                f"gradient {k} has shape {gk.shape}, expected {view.shape}")
        view[...] = gk

    product = np.empty_like(g)
    product_mats = layout.matrices(product)
    inner = {axis: np.empty(layout.lines[axis][-1]) for axis in _AXES}
    inner_views = {axis: _segments(inner[axis], layout.lines[axis])
                   for axis in _AXES}
    for s in reversed(range(len(state.stages) - 1)):
        axis = _AXES[s % 2]
        div = state.divisors[axis][s // 2]
        line_of = layout.line_of[axis]
        np.multiply(state.stages[s + 1], g, out=product)
        _line_sums(product_mats, inner_views[axis], axis)
        # assigned, not masked: an exempt line's inner product may be inf
        inner[axis][state.exempt[axis]] = 0.0
        g = g / div[line_of] - (inner[axis] / div)[line_of]
    return layout.matrices(g)


# ---------------------------------------------------------------------------
# Loss and discretization
# ---------------------------------------------------------------------------

def bce_loss(predicted: list[np.ndarray],
             target: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    """Summed binary cross entropy over all assignment entries.

    Predictions are clamped to [eps, 1-eps] before the logs; the returned
    gradient is that of the clamped expression, i.e. exactly zero where the
    clamp is active.  A non-finite prediction raises instead of clamping.
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
        if not np.all(np.isfinite(p)):
            raise NumericError(f"pair {k} carries non-finite predictions")
        clamped = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
        loss -= float(np.sum(t * np.log(clamped) + (1.0 - t) * np.log1p(-clamped)))
        inside = (p >= PROB_EPS) & (p <= 1.0 - PROB_EPS)
        grad = np.where(inside, (clamped - t) / (clamped * (1.0 - clamped)), 0.0)
        grads.append(grad)
    return loss, grads


def discretize(matrices: list[np.ndarray],
               virtual: bool = False) -> list[np.ndarray]:
    """Binarize soft assignments pair by pair.

    Real rows/columns get a maximum-weight bipartite matching from
    :func:`mdatrack.assignment.linear_sum_assignment`.  When ``virtual`` is
    set, every pair's last row and last column are virtual slots, as in
    :func:`l1_normalize_forward`: a matched row whose weight falls strictly
    below its virtual-column entry is reassigned to the virtual column, and
    unmatched real rows go there too; symmetrically, real columns left
    without a partner are attached to the virtual row.  Virtual slots may
    absorb several partners.
    """
    mats = _pair_matrices(matrices, virtual)
    result = []
    for k, m in enumerate(mats):
        if not np.all(np.isfinite(m)):
            raise NumericError(f"pair {k} carries non-finite entries")
        n_rows, n_cols = m.shape
        real_rows, real_cols = n_rows - virtual, n_cols - virtual
        out = np.zeros((n_rows, n_cols))
        matched = np.zeros(real_rows, dtype=bool)
        taken = np.zeros(real_cols, dtype=bool)
        if real_rows > 0 and real_cols > 0:
            weights = m[:real_rows, :real_cols]
            rows, cols = linear_sum_assignment(-weights)
            matched[rows] = True
            if virtual:
                absorbed = m[rows, n_cols - 1] > weights[rows, cols]
                out[rows[absorbed], n_cols - 1] = 1.0
                rows, cols = rows[~absorbed], cols[~absorbed]
            out[rows, cols] = 1.0
            taken[cols] = True
        if virtual:
            out[:real_rows, n_cols - 1][~matched] = 1.0
            out[n_rows - 1, :real_cols][~taken] = 1.0
        result.append(out)
    return result

