"""Per-mode restatement of the log-domain power-iteration and
l1-normalization layers and of their log-coordinate backward passes, the
reference the stacked solver is tested against bit for bit.

Each mode of the pairwise tensor keeps its own log vector on its own
support, the coordinates some hypothesis touches: every contraction is one
``np.logaddexp.reduceat`` per mode over that mode's hypotheses sorted by
coordinate, and the backward pass pushes each mode's entry weights onto
the other modes with one ``np.bincount`` per target mode and side.  The
normalization walks every pair line by line, each line's entries in
row-major order, and sums each line on its own; its backward pass
recomputes each step's output from the recorded input.  Every sum runs in
the same order as in the stacked solver, so both give exactly equal
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from mdatrack.errors import ContractError, DegenerateInputError, NumericError
from mdatrack.solver import DEGENERACY_FLOOR, HypothesisTensor


@dataclass
class Mode:
    """One mode's support and its hypotheses sorted by coordinate."""

    coords: np.ndarray        # sorted coordinates some hypothesis touches
    position: np.ndarray      # (H,) each hypothesis' place in ``coords``
    order: np.ndarray         # stable sort of the hypotheses by coordinate
    starts: np.ndarray        # where each coordinate's run begins in ``order``


@dataclass
class NormStep:
    """One row or column normalization step, with what backward needs."""

    axis: str                      # 'row' or 'col'
    pre: list[np.ndarray]          # per pair, log entries entering the step
    divisors: list[np.ndarray]     # per pair, log sum subtracted per line with entries
    applied: list[np.ndarray]      # per pair, bool per line with entries


@dataclass
class ReferenceState:
    """Per-mode log iterates plus the history the backward passes need."""

    shapes: list[tuple[int, int]]
    supports: list[np.ndarray]               # per pair, row-major positions
    x: list[np.ndarray] | None = None        # per pair, last log iterate
    tensor: HypothesisTensor | None = None
    modes: list[Mode] | None = None
    iterate_history: list[list[np.ndarray]] | None = None
    contraction_history: list[float] | None = None
    slice_history: list[list[np.ndarray]] | None = None
    norm_history: list[NormStep] | None = None
    skipped_lines: list[tuple[int, str, int]] = field(default_factory=list)

    def matrices(self) -> list[np.ndarray]:
        """The last log iterate or stage, exponentiated, as dense matrices."""
        out = []
        for (r, c), support, logs in zip(self.shapes, self.supports, self.x):
            m = np.zeros(r * c)
            m[support] = np.exp(logs)
            out.append(m.reshape(r, c))
        return out


def _pair_flat_indices(tuples: np.ndarray, sizes) -> tuple[np.ndarray, ...]:
    """Flat pair indices of (N, K+1) 0-based candidate tuples: for each
    frame pair k, ``i_{k-1} * I_k + i_k`` (row-major over the I_{k-1} x I_k
    grid), the tuple's coordinate along mode k of the pairwise tensor."""
    return tuple(tuples[:, k - 1] * sizes[k] + tuples[:, k]
                 for k in range(1, len(sizes)))


def _modes(tensor: HypothesisTensor) -> list[Mode]:
    modes = []
    for flat in _pair_flat_indices(tensor.entries, tensor.sizes):
        coords = np.unique(flat)
        order = np.argsort(flat, kind="stable")
        modes.append(Mode(coords, np.searchsorted(coords, flat), order,
                          np.searchsorted(flat[order], coords)))
    return modes


def _log(a: np.ndarray) -> np.ndarray:
    """log of the positive entries, -inf for the others."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a > 0.0, np.log(a), -np.inf)


def _gather(vectors: list[np.ndarray], modes: list[Mode]) -> list[np.ndarray]:
    """Each mode's support vector read at the hypotheses."""
    return [v[mode.position] for v, mode in zip(vectors, modes)]


def power_iteration_forward(tensor: HypothesisTensor,
                            num_iterations: int) -> ReferenceState:
    """log x_k <- log x_k + log (contraction with the other vectors) - log C,
    all pairs synchronously from the same iterate, the first all-ones, one
    logaddexp reduction per mode over the values divided by their maximum."""
    if num_iterations < 1:
        raise ContractError(f"need at least one iteration, got {num_iterations}")
    values = tensor.values
    if np.any(values < -1e-6):
        raise ContractError("affinity tensor must be nonnegative")
    if not np.all(np.isfinite(values)):
        raise NumericError("non-finite entries in the affinity tensor")

    K = len(tensor.shape)
    modes = _modes(tensor)
    top = float(values.max(initial=0.0))
    log_values = _log(values / top) if top > 0.0 else _log(values)
    log_top = math.log(top) if top > 0.0 else -math.inf
    y = [np.zeros(len(mode.coords)) for mode in modes]
    iterate_history = [y]
    contraction_history: list[float] = []
    slice_history: list[list[np.ndarray]] = []

    for n in range(num_iterations):
        gathered = _gather(y, modes)
        slices = []
        for k, mode in enumerate(modes):
            terms = log_values[mode.order]
            for m in range(K):
                if m != k:
                    terms = terms + gathered[m][mode.order]
            slices.append(np.logaddexp.reduceat(terms, mode.starts))
        log_c = float(np.logaddexp.reduce(y[0] + slices[0]))
        if not log_c < math.inf:
            raise NumericError(f"non-finite contraction at iteration {n}")
        if log_c + log_top < math.log(DEGENERACY_FLOOR):
            raise DegenerateInputError(
                f"all-zero contraction at iteration {n}; the affinity tensor "
                "has no mass on the current support")
        y = [y[k] + slices[k] - log_c for k in range(K)]
        iterate_history.append(y)
        contraction_history.append(math.exp(log_c + log_top))
        slice_history.append([s + log_top for s in slices])

    return ReferenceState(
        shapes=list(zip(tensor.sizes, tensor.sizes[1:])),
        supports=[mode.coords for mode in modes],
        x=y,
        tensor=tensor,
        modes=modes,
        iterate_history=iterate_history,
        contraction_history=contraction_history,
        slice_history=slice_history,
    )


def power_iteration_backward(state: ReferenceState,
                             d_log: np.ndarray) -> np.ndarray:
    """Value gradient from the gradient at the last log iterate (stacked
    mode after mode), walking the iterations in reverse on each mode's
    support: mode 0 takes the normalizer's gradient, each mode's entries
    weigh the gradient at their position by exp(other logs - slice), and
    each mode gathers what the other modes' entries push onto it, those of
    the modes before it and those after it in one bincount each."""
    tensor, modes = state.tensor, state.modes
    K, H = len(modes), len(tensor.values)
    bounds = np.cumsum([0] + [len(mode.coords) for mode in modes])
    d_log = np.asarray(d_log, dtype=float)
    g = [d_log[a:b] for a, b in zip(bounds, bounds[1:])]
    # per mode, the position of each entry in the mode's sorted order
    seg = [mode.position[mode.order] for mode in modes]
    pulled = [np.zeros(H) for _ in modes]

    def push(k, sources, weighted):
        positions = [np.empty(0, dtype=np.intp)] + [
            modes[k].position[modes[m].order] for m in sources]
        return np.bincount(np.concatenate(positions),
                           np.concatenate([np.empty(0)]
                                          + [weighted[m] for m in sources]),
                           minlength=len(modes[k].coords))

    for n in reversed(range(len(state.contraction_history))):
        y = state.iterate_history[n]
        total = np.concatenate(g).sum()
        g[0] = g[0] - total * np.exp(state.iterate_history[n + 1][0])
        gathered = _gather(y, modes)
        weighted = []
        for k, mode in enumerate(modes):
            slices = state.slice_history[n][k]
            slices = np.where(slices > -np.inf, slices, 0.0)[seg[k]]
            others = sum(gathered[m][mode.order] for m in range(K) if m != k)
            weights = g[k][seg[k]] * np.exp(others - slices)
            pulled[k] += weights
            weighted.append(tensor.values[mode.order] * weights)
        g = [g[k] + (push(k, range(k), weighted)
                     + push(k, range(k + 1, K), weighted))
             for k in range(K)]

    d_values = []
    for mode, weights in zip(modes, pulled):
        unsorted = np.empty(H)
        unsorted[mode.order] = weights
        d_values.append(unsorted)
    return sum(d_values)


def _lines(shape, support: np.ndarray, axis: str
           ) -> tuple[np.ndarray, list[np.ndarray]]:
    """The lines of a pair that have entries, and for each the positions
    (within the pair's support) of its entries, in row-major order."""
    keys = np.divmod(support, shape[1])[axis == "col"]
    ids = np.unique(keys)
    return ids, [np.flatnonzero(keys == line) for line in ids]


def l1_normalize_forward(shapes, supports, log_values, num_pairs: int,
                         virtual: bool = False) -> ReferenceState:
    """Alternating row/column log-domain scaling of each pair's log entries
    on its support (row-major positions ``supports[k]``), line by line: the
    virtual last lines (with ``virtual``) and the lines without mass at
    entry are left alone."""
    values = [np.asarray(v, dtype=float).copy() for v in log_values]
    ids, lines = {}, {}
    for axis in ("row", "col"):
        ids[axis], lines[axis] = zip(*[_lines(shape, s, axis)
                                       for shape, s in zip(shapes, supports)])
    applied = {}
    skipped: list[tuple[int, str, int]] = []
    for axis, d in (("row", 0), ("col", 1)):
        applied[axis] = []
        for k, shape in enumerate(shapes):
            live = np.array([np.any(values[k][line] > -np.inf)
                             for line in lines[axis][k]], dtype=bool)
            last = ids[axis][k] == shape[d] - 1
            applied[axis].append(live & ~(virtual & last))
            covered = set(ids[axis][k][live].tolist())
            skipped.extend((k, axis, i) for i in range(shape[d])
                           if i not in covered)
    skipped.sort(key=lambda line: (line[0], line[1] == "col"))

    history: list[NormStep] = []
    for _ in range(num_pairs):
        for axis in ("row", "col"):
            pre = [v.copy() for v in values]
            divisors = []
            for k in range(len(shapes)):
                div = np.zeros(len(lines[axis][k]))
                for i, line in enumerate(lines[axis][k]):
                    if applied[axis][k][i]:
                        div[i] = np.logaddexp.reduce(values[k][line])
                    values[k][line] = values[k][line] - div[i]
                divisors.append(div)
            history.append(NormStep(axis, pre, divisors,
                                    [a.copy() for a in applied[axis]]))

    return ReferenceState(shapes=list(shapes), supports=list(supports),
                          x=values, norm_history=history,
                          skipped_lines=skipped)


def l1_normalize_dense(matrices, num_pairs: int,
                       virtual: bool = False) -> ReferenceState:
    """The normalization of dense matrices, on their nonzero entries."""
    mats = [np.asarray(m, dtype=float) for m in matrices]
    supports = [np.flatnonzero(m) for m in mats]
    return l1_normalize_forward([m.shape for m in mats], supports,
                                [np.log(m.ravel()[s]) for m, s in zip(mats, supports)],
                                num_pairs, virtual)


def _line_sum(values: np.ndarray) -> float:
    """A line's sum as ``np.add.reduceat`` adds a segment: its first entry
    plus numpy's (pairwise) sum of the rest."""
    return values[0] + values[1:].sum()


def l1_normalize_backward(state: ReferenceState,
                          d_x_final: list[np.ndarray]) -> list[np.ndarray]:
    """The gradient at the input logs, per pair on its support: the output
    gradient times the output, then the recorded steps in reverse, line by
    line, each step's output recomputed as ``pre - div``; exempt lines pass
    the gradient through unchanged."""
    g = [np.exp(x) * np.asarray(v, dtype=float).ravel()[s]
         for x, v, s in zip(state.x, d_x_final, state.supports)]
    for step in reversed(state.norm_history):
        for k, (shape, support) in enumerate(zip(state.shapes, state.supports)):
            for i, line in enumerate(_lines(shape, support, step.axis)[1]):
                post = step.pre[k][line] - step.divisors[k][i]
                total = _line_sum(g[k][line]) if step.applied[k][i] else 0.0
                g[k][line] = g[k][line] - np.exp(post) * total
    return g
