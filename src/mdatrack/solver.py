"""Differentiable assignment solver.

Two layers, each with a forward pass and an analytic backward pass:

* a rank-1 tensor-approximation power iteration that relaxes the hard
  assignment problem into per-pair soft assignment vectors, run on the
  pairwise affinity tensor held as its hypothesis list
  (:class:`HypothesisTensor`): the tensor has one non-zero entry per
  gated hypothesis, so every contraction is a bincount over the hypotheses
  and the tensor never exists in dense form, and
* an alternating row/column l1 normalization that pushes the soft
  assignment matrices toward the doubly-stochastic constraint set, with
  optional partial masks so a virtual row/column stays unconstrained in
  one direction.

Plus the binary cross-entropy training loss and a Hungarian-based
discretization.  All functions are pure with respect to their inputs;
history needed by the backward passes is returned inside AssignmentState.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    ContractError,
    DegenerateInputError,
    NumericError,
)

DEGENERACY_FLOOR = 1e-30
PROB_EPS = 1e-7

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class NormStep:
    """One row or column normalization step, with what backward needs."""

    axis: str                      # 'row' or 'col'
    pre: list[np.ndarray]          # matrices entering the step
    divisors: list[np.ndarray]     # per-line sums actually divided by (1 where skipped)
    applied: list[np.ndarray]      # bool per line: was this line normalized


@dataclass
class PartialNormMask:
    """Lines exempted from one normalization direction, per pair.

    ``rows_column_only[k]`` holds 0-based row indices of X^(k) that are never
    row-normalized (they still participate in column normalization), and
    symmetrically for ``cols_row_only``.  In tracking mode these reference
    only the virtual candidate slot, which always sits at the last index.
    """

    rows_column_only: list[frozenset[int]]
    cols_row_only: list[frozenset[int]]

    @classmethod
    def empty(cls, num_pairs: int) -> "PartialNormMask":
        return cls([frozenset()] * num_pairs, [frozenset()] * num_pairs)

    @classmethod
    def for_virtuals(cls, shapes: list[tuple[int, int]],
                     virtual_rows: list[bool],
                     virtual_cols: list[bool]) -> "PartialNormMask":
        rows = []
        cols = []
        for (n_rows, n_cols), vr, vc in zip(shapes, virtual_rows, virtual_cols):
            rows.append(frozenset({n_rows - 1}) if vr else frozenset())
            cols.append(frozenset({n_cols - 1}) if vc else frozenset())
        return cls(rows, cols)


def _pair_flat_indices(tuples: np.ndarray, sizes) -> tuple[np.ndarray, ...]:
    """Flat pair indices of (N, K+1) 0-based candidate tuples: for each
    frame pair k, ``i_{k-1} * I_k + i_k`` (row-major over the I_{k-1} x I_k
    grid), the tuple's coordinate along mode k of the pairwise tensor."""
    return tuple(tuples[:, k - 1] * sizes[k] + tuples[:, k]
                 for k in range(1, len(sizes)))


@dataclass(frozen=True, eq=False)
class HypothesisTensor:
    """The K-order pairwise affinity tensor, held as its hypothesis list.

    Mode k runs over the flattened candidate pairs of frames k and k+1
    (dimension I_k * I_{k+1}).  Hypothesis h, the candidate tuple
    ``entries[h]``, holds ``values[h]`` at its flat pair indices ``flat``;
    every other entry is zero.  The flat pair indices determine the tuple,
    so distinct tuples never share an entry.
    """

    entries: np.ndarray                  # (H, K+1) 0-based candidate tuples
    values: np.ndarray                   # (H,) affinity of each hypothesis
    sizes: tuple[int, ...]               # candidates per frame, K+1 frames
    flat: tuple[np.ndarray, ...] = field(init=False, repr=False)

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
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "flat", _pair_flat_indices(entries, sizes))

    @property
    def pair_shapes(self) -> list[tuple[int, int]]:
        """(I_{k-1}, I_k) for each of the K frame pairs."""
        return list(zip(self.sizes, self.sizes[1:]))

    @property
    def shape(self) -> tuple[int, ...]:
        """Dimension of each mode, I_{k-1} * I_k."""
        return tuple(a * b for a, b in self.pair_shapes)


@dataclass
class AssignmentState:
    """Per-pair soft assignments plus the history the backward passes need."""

    x: list[np.ndarray]
    shapes: list[tuple[int, int]]
    tensor: HypothesisTensor | None = None
    iterate_history: list[list[np.ndarray]] | None = None
    contraction_history: list[float] | None = None
    slice_history: list[list[np.ndarray]] | None = None
    norm_history: list[NormStep] | None = None
    norm_mask: PartialNormMask | None = None
    skipped_lines: list[tuple[int, str, int]] = field(default_factory=list)

    def matrices(self) -> list[np.ndarray]:
        return [v.reshape(shape) for v, shape in zip(self.x, self.shapes)]


def assignment_objective(affinity: np.ndarray, matrices: list[np.ndarray]) -> float:
    """Total affinity of a (soft or binary) assignment expressed on the
    candidate-tuple tensor."""
    K = affinity.ndim - 1
    letters = _LETTERS[:K + 1]
    subscripts = (letters + "," +
                  ",".join(letters[k - 1:k + 1] for k in range(1, K + 1)) + "->")
    return float(np.einsum(subscripts, affinity, *matrices))


# ---------------------------------------------------------------------------
# Power iteration layer
# ---------------------------------------------------------------------------

def _gather(vectors: list[np.ndarray],
            tensor: HypothesisTensor) -> list[np.ndarray]:
    """Each mode's vector read at the hypotheses' coordinates."""
    return [v[f] for v, f in zip(vectors, tensor.flat)]


def _product(columns: list[np.ndarray]) -> np.ndarray:
    out = columns[0]
    for column in columns[1:]:
        out = out * column
    return out


def _contract(tensor: HypothesisTensor, gathered: list[np.ndarray],
              free_mode: int) -> np.ndarray:
    """Contract the tensor with one vector per mode except ``free_mode``,
    given each mode's vector gathered at the hypotheses: one weighted
    bincount over the hypotheses' mode coordinates."""
    others = [column for m, column in enumerate(gathered) if m != free_mode]
    return np.bincount(tensor.flat[free_mode],
                       _product([tensor.values] + others),
                       minlength=tensor.shape[free_mode])


def power_iteration_forward(tensor: HypothesisTensor,
                            num_iterations: int,
                            x0: list[np.ndarray] | None = None) -> AssignmentState:
    """Run the rank-1 power iteration on the pairwise affinity tensor.

    Every assignment vector starts at all-ones (or at ``x0``).  One iteration
    updates all pairs synchronously from the same iterate:

        x_k <- x_k * (contraction of the tensor with the other vectors) / C

    where C is the full contraction, shared across pairs, so every updated
    vector sums to one.  The contraction for pair k is one weighted bincount
    of the H hypotheses over their mode-k coordinates, so the tensor is
    never formed; the iterates stay dense vectors of length I_{k-1} * I_k.
    All iterates, slices and normalizers are retained for the backward pass.
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
        gathered = _gather(x, tensor)
        slices = [_contract(tensor, gathered, k) for k in range(K)]
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

    return AssignmentState(
        x=[v.copy() for v in x],
        shapes=tensor.pair_shapes,
        tensor=tensor,
        iterate_history=iterate_history,
        contraction_history=contraction_history,
        slice_history=slice_history,
    )


def power_iteration_backward(state: AssignmentState,
                             d_x_final: list[np.ndarray]
                             ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Backward pass of the power iteration layer.

    Given the loss gradient at the final iterates, walks the iterations in
    reverse, accumulating the gradient of each hypothesis value (its tensor
    entry at coordinates j_1..j_K)

        dL/dv  +=  (prod_k x_k(n)[j_k]) / C(n) * sum_k (g_k(n+1)[j_k] - <x_k(n+1), g_k(n+1)>)

    and propagating the iterate gradients with the exact differential of the
    synchronous update (own-slice term, shared-normalizer term, and the
    cross-pair contraction terms, each a bincount over the hypotheses).
    Returns the (H,) gradient of the hypothesis values and the gradient at
    the initial vectors.
    """
    if (state.iterate_history is None or state.contraction_history is None
            or state.slice_history is None or state.tensor is None):
        raise ContractError("state is missing power-iteration history")
    tensor = state.tensor
    K = len(state.x)
    if len(d_x_final) != K:
        raise ContractError(f"need {K} gradient vectors, got {len(d_x_final)}")
    g = []
    for k in range(K):
        gk = np.asarray(d_x_final[k], dtype=float)
        if gk.shape != state.x[k].shape:
            raise ContractError(f"gradient {k} has shape {gk.shape}, "
                                f"expected {state.x[k].shape}")
        g.append(gk.copy())

    num_iterations = len(state.contraction_history)
    d_values = np.zeros(len(tensor.values))

    for n in reversed(range(num_iterations)):
        xs = state.iterate_history[n]
        xs_next = state.iterate_history[n + 1]
        slices = state.slice_history[n]
        norm_const = state.contraction_history[n]

        beta = sum(float(xs_next[k] @ g[k]) for k in range(K))
        gathered = _gather(xs, tensor)
        weighted = [x * gk for x, gk in zip(gathered, _gather(g, tensor))]

        def swap(m):
            # the gathered iterates with mode m's scaled by its gradient
            return gathered[:m] + [weighted[m]] + gathered[m + 1:]

        # value gradient contribution of this iteration: each hypothesis'
        # entry of -beta * (outer xs) + sum_k (outer xs, x_k scaled by g_k),
        # summed term by term so it rounds as the dense outer products do
        term = -beta * _product(gathered)
        for k in range(K):
            term += _product(swap(k))
        d_values += term / norm_const

        # iterate gradients one step earlier
        new_g = []
        for k in range(K):
            cross = sum(_contract(tensor, swap(m), k)
                        for m in range(K) if m != k)
            new_g.append(slices[k] / norm_const * (g[k] - beta) + cross / norm_const)
        g = new_g

    return d_values, g

# ---------------------------------------------------------------------------
# l1 normalization layer
# ---------------------------------------------------------------------------

def l1_normalize_forward(matrices: list[np.ndarray],
                         mask: PartialNormMask,
                         num_pairs: int) -> AssignmentState:
    """Alternating row/column l1 normalization, ``num_pairs`` (row, col)
    passes, starting with rows.

    Rows listed in the mask are skipped during row normalization and
    symmetrically for columns.  Lines that are identically zero at entry are
    excluded from normalization throughout and reported in
    ``skipped_lines``; a zero sum on any other unmasked line raises.
    """
    K = len(matrices)
    if len(mask.rows_column_only) != K or len(mask.cols_row_only) != K:
        raise ContractError("mask does not cover every pair")
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
                    exempt = mask.rows_column_only[k] | zero_rows[k]
                else:
                    sums = m.sum(axis=0)
                    exempt = mask.cols_row_only[k] | zero_cols[k]
                applied = np.ones(sums.shape, dtype=bool)
                for idx in exempt:
                    applied[idx] = False
                # tiny positive sums normalize fine (entries never exceed
                # their sum); only an exact zero is degenerate
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

    return AssignmentState(
        x=[m.reshape(-1) for m in mats],
        shapes=[m.shape for m in mats],
        norm_history=history,
        norm_mask=mask,
        skipped_lines=skipped,
    )


def l1_normalize_backward(state: AssignmentState,
                          d_x_final: list[np.ndarray]) -> list[np.ndarray]:
    """Backward pass of the normalization layer.

    Walks the recorded steps in reverse.  For a normalized line with
    pre-step values v and sum s, the gradient maps as
    g_pre = g_post / s - <v/s, g_post> / s; skipped lines pass the gradient
    through unchanged.
    """
    if state.norm_history is None:
        raise ContractError("state is missing normalization history")
    K = len(state.shapes)
    if len(d_x_final) != K:
        raise ContractError(f"need {K} gradients, got {len(d_x_final)}")
    g = []
    for k in range(K):
        gk = np.asarray(d_x_final[k], dtype=float)
        if gk.shape != state.shapes[k]:
            raise ContractError(
                f"gradient {k} has shape {gk.shape}, expected {state.shapes[k]}")
        g.append(gk.copy())

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
    if virtual_rows is None:
        virtual_rows = [False] * K
    if virtual_cols is None:
        virtual_cols = [False] * K
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


def dump_state(state: AssignmentState) -> str:
    """Deterministic plain-text serialization of the assignment matrices:
    one shape header line per pair, then row-major values at 17 significant
    digits."""
    chunks = []
    for k, mat in enumerate(state.matrices()):
        chunks.append(f"pair {k} shape {mat.shape[0]} {mat.shape[1]}")
        for row in mat:
            chunks.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(chunks) + "\n"
