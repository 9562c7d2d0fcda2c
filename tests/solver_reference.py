"""Per-mode restatement of the log-domain power-iteration and
l1-normalization layers, the reference the stacked solver is tested against
bit for bit.

Each mode of the pairwise tensor keeps its own log vector on its own
support, the coordinates some hypothesis touches: every contraction is one
``np.logaddexp.reduceat`` per mode over that mode's hypotheses sorted by
coordinate.  The normalization walks every pair line by line, each line's
entries in row-major order, and sums each line on its own; its backward
pass recomputes each step's output from the recorded input.  Every sum runs
in the same order as in the stacked solver, so both give exactly equal
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
    x0: list[np.ndarray] | None = None
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


def _product(columns: list[np.ndarray]) -> np.ndarray:
    out = columns[0]
    for column in columns[1:]:
        out = out * column
    return out


def _gather(vectors: list[np.ndarray], modes: list[Mode]) -> list[np.ndarray]:
    """Each mode's support vector read at the hypotheses."""
    return [v[mode.position] for v, mode in zip(vectors, modes)]


def power_iteration_forward(tensor: HypothesisTensor,
                            num_iterations: int,
                            x0: list[np.ndarray] | None = None) -> ReferenceState:
    """log x_k <- log x_k + log (contraction with the other vectors) - log C,
    all pairs synchronously from the same iterate, one logaddexp reduction
    per mode over the values divided by their maximum."""
    if num_iterations < 1:
        raise ContractError(f"need at least one iteration, got {num_iterations}")
    values = tensor.values
    if np.any(values < -1e-6):
        raise ContractError("affinity tensor must be nonnegative")
    if not np.all(np.isfinite(values)):
        raise NumericError("non-finite entries in the affinity tensor")

    dims = tensor.shape
    K = len(dims)
    if x0 is None:
        x0 = [np.ones(d) for d in dims]
    else:
        if len(x0) != K:
            raise ContractError(f"x0 needs {K} vectors, got {len(x0)}")
        x0 = [np.asarray(v, dtype=float).copy() for v in x0]
        for k, v in enumerate(x0):
            if v.shape != (dims[k],):
                raise ContractError(f"x0[{k}] has wrong length")

    modes = _modes(tensor)
    top = float(values.max(initial=0.0))
    log_values = _log(values / top) if top > 0.0 else _log(values)
    log_top = math.log(top) if top > 0.0 else -math.inf
    y = [_log(v[mode.coords]) for v, mode in zip(x0, modes)]
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
        shapes=tensor.pair_shapes,
        supports=[mode.coords for mode in modes],
        x=y,
        tensor=tensor,
        modes=modes,
        x0=x0,
        iterate_history=iterate_history,
        contraction_history=contraction_history,
        slice_history=slice_history,
    )


def power_iteration_backward(state: ReferenceState,
                             d_x_final: list[np.ndarray]
                             ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Value gradient and initial-vector gradient on the exponentiated
    states, walking the iterations in reverse with per-mode gathers and one
    bincount per cross term, on each mode's support."""
    tensor, modes = state.tensor, state.modes
    K = len(modes)
    g = [np.asarray(v, dtype=float)[mode.coords]
         for v, mode in zip(d_x_final, modes)]

    def iterate(n):
        if n == 0:
            return [v[mode.coords] for v, mode in zip(state.x0, modes)]
        return [np.exp(v) for v in state.iterate_history[n]]

    num_iterations = len(state.contraction_history)
    d_values = np.zeros(len(tensor.values))

    for n in reversed(range(num_iterations)):
        xs, xs_next = iterate(n), iterate(n + 1)
        slices = [np.exp(s) for s in state.slice_history[n]]
        norm_const = state.contraction_history[n]

        beta = sum(float(xs_next[k] @ g[k]) for k in range(K))
        gathered = _gather(xs, modes)
        weighted = [x * gk for x, gk in zip(gathered, _gather(g, modes))]

        def swap(m):
            # the gathered iterates with mode m's scaled by its gradient
            return gathered[:m] + [weighted[m]] + gathered[m + 1:]

        def contract(columns, free_mode):
            others = [c for m, c in enumerate(columns) if m != free_mode]
            mode = modes[free_mode]
            return np.bincount(mode.position,
                               _product([tensor.values] + others),
                               minlength=len(mode.coords))

        term = -beta * _product(gathered)
        for k in range(K):
            term += _product(swap(k))
        d_values += term / norm_const

        g = [slices[k] / norm_const * (g[k] - beta)
             + sum(contract(swap(m), k) for m in range(K) if m != k) / norm_const
             for k in range(K)]

    d_x0 = [np.zeros(d) for d in tensor.shape]
    for out, gk, mode in zip(d_x0, g, modes):
        out[mode.coords] = gk
    return d_values, d_x0


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
    """Walks the recorded steps in reverse, line by line, recomputing each
    step's output as ``exp(pre - div)``; exempt lines, whose divisor is 1,
    pass the gradient through unchanged."""
    g = [np.asarray(v, dtype=float).ravel()[s].copy()
         for v, s in zip(d_x_final, state.supports)]
    for step in reversed(state.norm_history):
        for k, (shape, support) in enumerate(zip(state.shapes, state.supports)):
            for i, line in enumerate(_lines(shape, support, step.axis)[1]):
                post = np.exp(step.pre[k][line] - step.divisors[k][i])
                div = np.exp(step.divisors[k][i])
                inner = _line_sum(post * g[k][line]) if step.applied[k][i] else 0.0
                g[k][line] = g[k][line] / div - inner / div
    out = []
    for (r, c), support, gk in zip(state.shapes, state.supports, g):
        m = np.zeros(r * c)
        m[support] = gk
        out.append(m.reshape(r, c))
    return out
