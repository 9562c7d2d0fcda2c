"""Differentiable assignment solver: a rank-1 power iteration on the
pairwise affinity tensor, held as its hypothesis list
(:class:`HypothesisTensor`), and an alternating row/column l1 normalization
toward the doubly-stochastic set (a window's virtual last row and column
left unconstrained in their own direction), each with an analytic backward
pass; plus the binary cross-entropy loss and a discretization by
minimum-cost assignment (:func:`mdatrack.assignment.linear_sum_assignment`).

Both forward passes run in the log domain on the hypothesis support, the
pair-matrix entries some hypothesis touches, so a weak entry keeps its
logarithm instead of underflowing to zero.  Each grouped log-sum-exp is one
``np.logaddexp.reduceat`` over a layout the tensor builds once and shares
through :meth:`HypothesisTensor.with_values`.  The backward passes are the
exact derivatives of those log-domain passes: the gradient is carried with
respect to the logs on the support, from the normalization's output back
to the hypothesis values, and no step divides.  The matcher reads the
exponentiated matrices.  Each forward pass returns the state its backward
pass reads; the dense tensor never exists.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .assignment import linear_sum_assignment
from .errors import ContractError, DegenerateInputError, NumericError

DEGENERACY_FLOOR = 1e-30
PROB_EPS = 1e-7
_AXES = ("row", "col")


def _pair_flat_indices(tuples: np.ndarray, sizes) -> tuple[np.ndarray, ...]:
    """Flat pair indices of (N, K+1) 0-based candidate tuples: for each
    frame pair k, ``i_{k-1} * I_k + i_k`` (row-major over the I_{k-1} x I_k
    grid), the tuple's coordinate along mode k of the pairwise tensor."""
    return tuple(tuples[:, k - 1] * sizes[k] + tuples[:, k]
                 for k in range(1, len(sizes)))


def _offsets(dims) -> tuple[int, ...]:
    """Start of each mode in the stacked vector, then its total length."""
    return tuple(accumulate(dims, initial=0))


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of a sorted key array begins, and each key's run."""
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return new.nonzero()[0], new.cumsum() - 1


def _log(a: np.ndarray) -> np.ndarray:
    """Elementwise log, -inf where an entry is not positive (no mass)."""
    return np.log(a, out=np.full(a.shape, -np.inf), where=a > 0.0)


def _hypothesis_values(values, count: int) -> np.ndarray:
    """One float per hypothesis."""
    values = np.asarray(values, dtype=float)
    if values.shape != (count,):
        raise ContractError(f"{count} hypotheses but values of shape {values.shape}")
    return values


class PairSupport:
    """The entries of K pair matrices that can carry mass, stacked pair
    after pair: pair k's at ``bounds[k]:bounds[k + 1]``, entry e at
    row-major position ``flat[e]`` of its matrix, increasing.  Lines are
    numbered pair by pair, rows then columns: pair k's rows from
    ``bases[k]``, its columns right after them (:meth:`name` inverts it).

    Per direction, ``order[axis]`` sorts the entries stably by line (a
    slice for rows, already in order); the lines with entries are segments
    of that order, placed by ``starts[axis]`` and named by ``line[axis]``.
    ``of[axis]`` is each entry's segment, ``last[axis]`` marks each pair's
    last line, the virtual slot of a window that has one.
    """

    def __init__(self, shapes: tuple[tuple[int, int], ...], flat: np.ndarray,
                 bounds: tuple[int, ...]):
        self.shapes, self.flat, self.bounds = shapes, flat, bounds
        arr = np.array(shapes, dtype=np.intp).reshape(-1, 2)
        pair = np.arange(len(arr)).repeat([b - a for a, b in zip(bounds, bounds[1:])])
        local = np.divmod(flat, arr[pair, 1])
        self.bases = _offsets(arr.sum(axis=1).tolist())
        self.order, self.starts, self.of, self.line, self.last = ({} for _ in range(5))
        for d, axis in enumerate(_AXES):
            keys = local[d] + (np.array(self.bases[:-1], dtype=np.intp)
                               + d * arr[:, 0])[pair]
            order = slice(None) if d == 0 else keys.argsort(kind="stable")
            starts, runs = _runs(keys[order])
            self.order[axis], self.starts[axis] = order, starts
            self.of[axis] = np.empty(len(keys), dtype=np.intp)
            self.of[axis][order] = runs
            self.line[axis] = keys[order][starts]
            self.last[axis] = (local[d] + 1 == arr[pair, d])[order][starts]

    def name(self, line: int) -> tuple[int, str, int]:
        """(pair, axis, index) of a numbered line."""
        k = bisect_right(self.bases, line) - 1
        index, rows = line - self.bases[k], self.shapes[k][0]
        return (k, "row", index) if index < rows else (k, "col", index - rows)

    def scatter(self, stacked: np.ndarray) -> list[np.ndarray]:
        """Dense per-pair matrices of ``stacked``, 0 off the support."""
        out = []
        for (r, c), a, b in zip(self.shapes, self.bounds, self.bounds[1:]):
            m = np.zeros(r * c)
            m[self.flat[a:b]] = stacked[a:b]
            out.append(m.reshape(r, c))
        return out


@dataclass(frozen=True, eq=False)
class LogMatrices:
    """Pair matrices as the logs of their entries on a support (``len``
    counts the pairs), the form the normalization runs on."""

    support: PairSupport
    values: np.ndarray                   # (T,) log entries, -inf for a zero

    def __len__(self) -> int:
        return len(self.support.shapes)


@dataclass(frozen=True, eq=False)
class HypothesisTensor:
    """The K-order pairwise affinity tensor, held as its hypothesis list.

    Mode k runs over the flattened candidate pairs of frames k and k+1
    (dimension I_k * I_{k+1}).  Hypothesis h, the candidate tuple
    ``entries[h]``, holds ``values[h]`` at its pair coordinates; every other
    entry is zero.  The pair coordinates determine the tuple, so distinct
    tuples never share an entry.

    The modes are stacked end to end, mode k at ``offsets[k]``;
    ``index[k * H + h]`` is hypothesis h's position in mode k.  The support
    is the sorted positions some hypothesis touches (mode k's from
    ``mode_bounds[k]``).  ``order`` sorts the entries stably by position,
    ``starts`` is where each position's run begins in that order, and
    ``position`` is each sorted entry's support position;
    ``factor_support[i]`` is, for each sorted entry, the support position
    of the same hypothesis' i-th other mode (in mode order).
    """

    entries: np.ndarray                  # (H, K+1) 0-based candidate tuples
    values: np.ndarray                   # (H,) affinity of each hypothesis
    sizes: tuple[int, ...]               # candidates per frame, K+1 frames
    shape: tuple[int, ...] = field(init=False)     # I_{k-1} * I_k per mode
    offsets: tuple[int, ...] = field(init=False)   # K+1 mode starts and end
    index: np.ndarray = field(init=False, repr=False)          # (K*H,)
    stacked_values: np.ndarray = field(init=False, repr=False)  # (K*H,)
    support: np.ndarray = field(init=False, repr=False)         # (T,)
    mode_bounds: tuple = field(init=False, repr=False)
    order: np.ndarray = field(init=False, repr=False)           # (K*H,)
    position: np.ndarray = field(init=False, repr=False)        # (K*H,)
    starts: np.ndarray = field(init=False, repr=False)          # (T,)
    factor_support: tuple = field(init=False, repr=False)
    pair_supports: dict = field(init=False, repr=False)  # by first pair

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
        index = np.concatenate([np.empty(0, dtype=np.intp)] + [
            flat + offset
            for flat, offset in zip(_pair_flat_indices(entries, sizes), offsets)])
        # row k's i-th other mode is i + 1 up to row i, and i after it
        positions = np.arange(K * H, dtype=np.intp).reshape(K, H)
        factor_rows = tuple(positions[[i + (i >= k) for k in range(K)]].ravel()
                            for i in range(K - 1))
        order = index.argsort(kind="stable")
        starts, runs = _runs(index[order])
        support_of = np.empty(K * H, dtype=np.intp)
        support_of[order] = runs
        support = index[order][starts]
        vars(self).update(
            entries=entries, values=values, sizes=sizes, shape=shape,
            offsets=offsets, index=index,
            stacked_values=np.concatenate([values] * K),
            support=support,
            mode_bounds=tuple(support.searchsorted(offsets).tolist()),
            order=order, starts=starts, position=runs,
            factor_support=tuple(support_of[r][order] for r in factor_rows),
            pair_supports={})

    def with_values(self, values) -> "HypothesisTensor":
        """The same hypotheses holding ``values``: the new tensor shares
        everything but ``values`` and ``stacked_values`` with this one."""
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

    def pair_support(self, first: int = 0) -> PairSupport:
        """The support of pairs ``first`` onward, built on first use."""
        if first not in self.pair_supports:
            a, bounds = self.mode_bounds[first], self.mode_bounds[first:]
            counts = [end - start for start, end in zip(bounds, bounds[1:])]
            self.pair_supports[first] = PairSupport(
                tuple(self.pair_shapes[first:]), self.support[a:]
                - np.array(self.offsets[first:-1]).repeat(counts),
                tuple(b - a for b in bounds))
        return self.pair_supports[first]


@dataclass
class PowerIterationState:
    """The power iteration's run on ``tensor``, as its backward pass needs it.

    The iterates (the first from the initial vector) and the slices are
    logs on the tensor's support.  ``x`` and ``matrices()`` give the last
    iterate exponentiated, in dense form (0 off the support).
    """

    tensor: HypothesisTensor
    log_iterates: list[np.ndarray]          # on the support, N+1 of them
    log_slices: list[np.ndarray]            # on the support, N of them
    contraction_history: list[float]

    @property
    def x(self) -> list[np.ndarray]:
        return [m.ravel() for m in self.matrices()]

    def matrices(self) -> list[np.ndarray]:
        return self.tensor.pair_support().scatter(np.exp(self.log_iterates[-1]))

    def log_pairs(self, first: int = 0) -> LogMatrices:
        """The last log iterate of pairs ``first`` onward, to normalize."""
        a = self.tensor.mode_bounds[first]
        return LogMatrices(self.tensor.pair_support(first),
                           self.log_iterates[-1][a:])


# ---------------------------------------------------------------------------
# Power iteration layer
# ---------------------------------------------------------------------------

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

    where C is the full contraction, so every updated vector sums to one.
    It runs on the logs of the vectors on the support (an update leaves 0
    elsewhere): all contractions are one ``np.logaddexp.reduceat`` of
    ``log value + log x[factor]``, log C one ``np.logaddexp.reduce`` over
    mode 0.  A hypothesis of value 0 carries log -inf and adds nothing.
    """
    if num_iterations < 1:
        raise ContractError(f"need at least one iteration, got {num_iterations}")
    values = tensor.values
    # tolerance instead of a strict check so finite-difference probes around
    # structural zeros stay admissible
    if (values < -1e-6).any():
        raise ContractError("affinity tensor must be nonnegative")
    if not np.isfinite(values).all():
        raise NumericError("non-finite entries in the affinity tensor")
    x0 = (np.ones(tensor.offsets[-1]) if x0 is None
          else _stacked(x0, tensor.shape, "x0"))
    if not (x0 >= 0.0).all():
        raise ContractError("x0 must be nonnegative")

    # logs of the values over their maximum: a common scale moves only the
    # slices and C, and a power of two not even the iterates' rounding
    top = float(values.max(initial=0.0))
    log_values = _log(tensor.stacked_values / (top if top > 0.0 else 1.0))[tensor.order]
    log_top = math.log(top) if top > 0.0 else -math.inf
    first = tensor.mode_bounds[1]
    y = _log(x0[tensor.support])
    log_iterates, log_slices, contraction_history = [y], [], []
    for n in range(num_iterations):
        terms = log_values
        for factor in tensor.factor_support:
            terms = terms + y[factor]
        slices = np.logaddexp.reduceat(terms, tensor.starts)
        log_c = float(np.logaddexp.reduce(y[:first] + slices[:first]))
        if not log_c < math.inf:
            raise NumericError(f"non-finite contraction at iteration {n}")
        if log_c + log_top < math.log(DEGENERACY_FLOOR):
            raise DegenerateInputError(
                f"all-zero contraction at iteration {n}; the affinity tensor "
                "has no mass on the current support")
        y = y + slices - log_c
        log_iterates.append(y)
        log_slices.append(slices + log_top)
        contraction_history.append(math.exp(log_c + log_top))

    return PowerIterationState(tensor, log_iterates, log_slices,
                               contraction_history)


def power_iteration_backward(state: PowerIterationState,
                             d_log: np.ndarray) -> np.ndarray:
    """Backward pass of the power iteration layer, in the forward's log
    coordinates: takes the loss gradient at the last log iterate (one float
    per support position) and returns the (H,) hypothesis value gradient.

    Iteration n maps the log iterate y to y + s - log C, where s_t is the
    log-sum-exp of ``log value + log x[factor]`` over the entries at
    position t, and log C that of y + s over mode 0.  Going back through it
    from the gradient g at its output, log C takes sum(g) times the output
    off mode 0's positions; what is left is the gradient at y and at s
    alike.  An entry at position t then adds g[t] * u to its hypothesis'
    value gradient, u = exp(other factors' logs - s_t), and value * g[t] * u,
    its share of s_t, to each other factor's position (one ``np.bincount``
    per factor).  u leaves the value out, so nothing divides by a value and
    a zero-valued hypothesis gets its gradient too.
    """
    tensor = state.tensor
    T, K, H = len(tensor.support), len(tensor.shape), len(tensor.values)
    g = np.array(d_log, dtype=float)
    if g.shape != (T,):
        raise ContractError(f"gradient of shape {g.shape}, expected ({T},)")
    first = tensor.mode_bounds[1]
    position, values = tensor.position, tensor.stacked_values[tensor.order]
    pulled = np.zeros(K * H)
    for n in reversed(range(len(state.contraction_history))):
        y, slices = state.log_iterates[n], state.log_slices[n]
        g[:first] -= g.sum() * np.exp(state.log_iterates[n + 1][:first])
        # a slice without mass leaves its position 0 and gives it gradient
        # 0: any finite stand-in keeps its entries' weights finite
        slices = np.where(slices > -np.inf, slices, 0.0)[position]
        weights = g[position] * np.exp(
            sum(y[factor] for factor in tensor.factor_support) - slices)
        pulled += weights
        pushed = values * weights
        g = g + sum(np.bincount(factor, pushed, minlength=T)
                    for factor in tensor.factor_support)
    by_mode = np.empty(K * H)
    by_mode[tensor.order] = pulled
    return sum(by_mode.reshape(K, H))


# ---------------------------------------------------------------------------
# l1 normalization layer
# ---------------------------------------------------------------------------

def _check_virtual(shapes, virtual: bool) -> None:
    """With virtual slots each pair ends in a virtual row and column."""
    for k, shape in enumerate(shapes):
        if virtual and 0 in shape:
            raise ContractError(f"pair {k} of shape {shape} has no "
                                "virtual last row and column")


def _pair_matrices(matrices, virtual: bool) -> list[np.ndarray]:
    """One float matrix per pair, checked against the window flag."""
    mats = [np.asarray(m, dtype=float) for m in matrices]
    for k, m in enumerate(mats):
        if m.ndim != 2:
            raise ContractError(f"pair {k} is not a matrix")
    _check_virtual([m.shape for m in mats], virtual)
    return mats


def _log_matrices(matrices, virtual: bool) -> LogMatrices:
    """The normalization's input as logs: dense nonnegative matrices on
    their nonzero entries."""
    if isinstance(matrices, LogMatrices):
        _check_virtual(matrices.support.shapes, virtual)
        return matrices
    mats = _pair_matrices(matrices, virtual)
    for k, m in enumerate(mats):
        if not np.isfinite(m).all():
            raise NumericError(f"pair {k} carries non-finite entries")
        if (m < 0).any():
            raise ContractError(f"pair {k} carries negative entries")
    flats = [np.flatnonzero(m) for m in mats]
    support = PairSupport(tuple(m.shape for m in mats),
                          np.concatenate([np.empty(0, dtype=np.intp)] + flats),
                          _offsets(len(f) for f in flats))
    return LogMatrices(support, np.log(np.concatenate(
        [np.empty(0)] + [m.ravel()[f] for m, f in zip(mats, flats)])))


@dataclass
class NormalizationState:
    """The normalization's run on the entries of ``support``, held as logs.

    ``stages[s + 1]`` is the output of step s (rows, columns, alternating);
    a step leaves the ``exempt[axis]`` segments as they are.
    ``skipped_lines`` lists the (pair, axis, line) without mass at entry.
    """

    support: PairSupport
    stages: np.ndarray
    exempt: dict[str, np.ndarray]
    skipped_lines: list[tuple[int, str, int]]

    def matrices(self) -> list[np.ndarray]:
        return self.support.scatter(np.exp(self.stages[-1]))


def l1_normalize_forward(matrices, num_pairs: int,
                         virtual: bool = False) -> NormalizationState:
    """Alternating row/column l1 normalization, ``num_pairs`` (row, col)
    passes, starting with rows.

    ``matrices`` is a :class:`LogMatrices` (the power iteration's
    :meth:`PowerIterationState.log_pairs`) or dense nonnegative matrices.
    When ``virtual`` is set, every pair's last row and last column are
    virtual slots: the last row is skipped during row normalization (it
    still takes part in column normalization), and symmetrically the last
    column; :func:`discretize` takes the same flag.  Lines without mass at
    entry are left out and reported in ``skipped_lines``; a non-finite or
    negative entry raises.  Each step scales the logs on the support: one
    ``np.logaddexp.reduceat`` over the segments, then one subtraction of
    each line's log sum, gathered at its entries.
    """
    if num_pairs < 0:
        raise ContractError("iteration pair count must be >= 0")
    matrices = _log_matrices(matrices, virtual)
    support = matrices.support
    stages = np.empty((2 * num_pairs + 1, len(matrices.values)))
    stages[0] = matrices.values

    exempt = {}
    covered = np.zeros(support.bases[-1], dtype=bool)
    for axis in _AXES:
        live = np.maximum.reduceat(stages[0][support.order[axis]],
                                   support.starts[axis]) > -np.inf
        covered[support.line[axis][live]] = True
        exempt[axis] = (~live | (virtual & support.last[axis])).nonzero()[0]

    for s in range(2 * num_pairs):
        axis = _AXES[s % 2]
        div = np.logaddexp.reduceat(stages[s][support.order[axis]],
                                    support.starts[axis])
        div[exempt[axis]] = 0.0
        np.subtract(stages[s], div[support.of[axis]], out=stages[s + 1])

    # lines are numbered pair by pair, rows before columns: the order reported
    skipped = [support.name(line) for line in (~covered).nonzero()[0].tolist()]
    return NormalizationState(support, stages, exempt, skipped)


def l1_normalize_backward(state: NormalizationState,
                          d_x_final: list[np.ndarray]) -> np.ndarray:
    """Backward pass of the normalization layer, in its log coordinates:
    takes the loss gradient at the dense output matrices and returns it at
    the input logs on the support (:attr:`LogMatrices.values`).

    The output's gradient, times the output, is the gradient at the last
    stage.  A step z' = z - log(sum of exp z over the line) then maps a
    stage gradient g to g - exp(z') * (sum of g over the line), the sum one
    ``np.add.reduceat`` per step; an exempt line passes it through.
    """
    support = state.support
    if len(d_x_final) != len(support.shapes):
        raise ContractError(
            f"need {len(support.shapes)} gradients, got {len(d_x_final)}")
    for k, (gk, shape) in enumerate(zip(d_x_final, support.shapes)):
        if np.shape(gk) != shape:
            raise ContractError(
                f"gradient {k} has shape {np.shape(gk)}, expected {shape}")
    outputs = np.exp(state.stages)
    g = outputs[-1] * np.concatenate([np.empty(0)] + [
        np.asarray(gk, dtype=float).ravel()[support.flat[a:b]]
        for gk, a, b in zip(d_x_final, support.bounds, support.bounds[1:])])
    for s in reversed(range(len(outputs) - 1)):
        axis = _AXES[s % 2]
        total = np.add.reduceat(g[support.order[axis]], support.starts[axis])
        total[state.exempt[axis]] = 0.0
        g -= outputs[s + 1] * total[support.of[axis]]
    return g


# ---------------------------------------------------------------------------
# Loss and discretization
# ---------------------------------------------------------------------------

def bce_loss(predicted: list[np.ndarray],
             target: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    """Summed binary cross entropy over all assignment entries, with
    predictions clamped to [eps, 1-eps] before the logs; the gradient is the
    clamped expression's, exactly zero where the clamp is active.  A
    non-finite prediction raises instead of clamping."""
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
    """Binarize soft assignments pair by pair: real rows and columns get a
    maximum-weight matching (:func:`mdatrack.assignment.linear_sum_assignment`).
    With ``virtual``, as in :func:`l1_normalize_forward`, a matched row whose
    weight falls strictly below its virtual-column entry, and every
    unmatched real row, go to the virtual column; real columns left without
    a partner go to the virtual row.  Virtual slots absorb several partners.
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
