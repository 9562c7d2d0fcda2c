"""Ground-truth machinery: the dense assignment objective, brute-force
assignment search and a finite-difference gradient checker.

Everything here enumerates or probes directly and never calls into the
solver, so it can serve as an independent oracle for solver tests.  It
holds the package's only arithmetic on the dense candidate-tuple tensor,
and it is deliberately unoptimized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from mdatrack.errors import ContractError, NumericError, TrackingError

ENUMERATION_GUARD = 1_000_000
ALL_VALUES_LIMIT = 100_000


class SizeGuardError(TrackingError, ValueError):
    """An exhaustive computation was refused because the instance is too large."""


@dataclass
class BruteForceResult:
    """Exhaustive-search outcome for one assignment instance."""

    best_assignment: np.ndarray      # full binary tensor over candidate tuples
    best_value: float
    tie_count: int
    feasible_count: int
    all_values: list[tuple[tuple, float]] | None = None


def assignment_objective(affinity: np.ndarray, matrices: list[np.ndarray]) -> float:
    """Total affinity of a (soft or binary) assignment expressed on the
    dense candidate-tuple tensor: the tensor contracted with every pair's
    matrix, pair k on modes k and k+1."""
    operands = [affinity, list(range(affinity.ndim))]
    for k, m in enumerate(matrices):
        operands += [m, [k, k + 1]]
    return float(np.einsum(*operands, []))


def _exact_feasible_count(sizes: tuple[int, ...]) -> int:
    n = sizes[0]
    return math.factorial(n) ** (len(sizes) - 1)


def _partial_matchings(n_rows: int, n_cols: int):
    """Yield every injective partial map rows -> cols as a tuple where
    entry r is the assigned column or -1.  Lexicographic order."""
    def recurse(row, used, acc):
        if row == n_rows:
            yield tuple(acc)
            return
        # -1 (unassigned) sorts first so the all-unassigned map comes first
        acc.append(-1)
        yield from recurse(row + 1, used, acc)
        acc.pop()
        for col in range(n_cols):
            if col in used:
                continue
            used.add(col)
            acc.append(col)
            yield from recurse(row + 1, used, acc)
            acc.pop()
            used.remove(col)

    yield from recurse(0, set(), [])


def _count_partial_matchings(n_rows: int, n_cols: int) -> int:
    total = 0
    for j in range(min(n_rows, n_cols) + 1):
        total += (math.comb(n_rows, j) * math.comb(n_cols, j) * math.factorial(j))
    return total


def brute_force_mda(affinity: np.ndarray,
                    virtual_last: list[bool] | None = None,
                    guard: int = ENUMERATION_GUARD) -> BruteForceResult:
    """Enumerate every feasible assignment and return the maximizer of the
    total selected affinity.

    Without virtuals each candidate in each frame must be used exactly once,
    which requires all frame sizes to be equal; the feasible set is then the
    product of per-pair permutations.  With ``virtual_last[k]`` set, the last
    candidate of frame k is a virtual slot that may absorb any number of
    partners, and feasibility is enumerated per pair as injective partial
    matchings between real candidates with the leftovers routed to the
    virtual row/column.

    Ties are broken by lexicographic order of the assignment encoding; the
    tie count is always reported.
    """
    affinity = np.asarray(affinity, dtype=float)
    sizes = affinity.shape
    K = affinity.ndim - 1
    if K < 1:
        raise ContractError("affinity tensor must have order >= 2")

    if virtual_last is None or not any(virtual_last):
        return _brute_force_exact(affinity, sizes, guard)
    if len(virtual_last) != K + 1:
        raise ContractError(
            f"virtual_last needs {K + 1} entries, got {len(virtual_last)}")
    return _brute_force_relaxed(affinity, sizes, virtual_last, guard)


def _brute_force_exact(affinity, sizes, guard):
    if len(set(sizes)) != 1:
        raise ContractError(
            f"exact-cover constraints are infeasible for unequal frame sizes {sizes}")
    n = sizes[0]
    K = affinity.ndim - 1
    feasible = _exact_feasible_count(sizes)
    if feasible > guard:
        raise SizeGuardError(
            f"{feasible} feasible assignments exceed the guard of {guard}")

    keep_all = feasible <= ALL_VALUES_LIMIT
    all_values: list[tuple[tuple, float]] | None = [] if keep_all else None

    best_value = -np.inf
    best_encoding = None
    tie_count = 0
    perms = list(itertools.permutations(range(n)))
    for encoding in itertools.product(perms, repeat=K):
        value = 0.0
        for i0 in range(n):
            idx = [i0]
            cur = i0
            for sigma in encoding:
                cur = sigma[cur]
                idx.append(cur)
            value += affinity[tuple(idx)]
        if all_values is not None:
            all_values.append((encoding, value))
        if value > best_value:
            best_value = value
            best_encoding = encoding
            tie_count = 1
        elif value == best_value:
            tie_count += 1

    z = np.zeros_like(affinity)
    for i0 in range(n):
        idx = [i0]
        cur = i0
        for sigma in best_encoding:
            cur = sigma[cur]
            idx.append(cur)
        z[tuple(idx)] = 1.0
    return BruteForceResult(z, float(best_value), tie_count, feasible, all_values)


def _brute_force_relaxed(affinity, sizes, virtual_last, guard):
    K = affinity.ndim - 1
    pair_options: list[list[np.ndarray]] = []
    feasible = 1
    for k in range(1, K + 1):
        n_prev, n_next = sizes[k - 1], sizes[k]
        real_prev = n_prev - 1 if virtual_last[k - 1] else n_prev
        real_next = n_next - 1 if virtual_last[k] else n_next
        count = _count_partial_matchings(real_prev, real_next)
        feasible *= count
        if feasible > guard:
            raise SizeGuardError(
                f"feasible count exceeds the guard of {guard}")
        options = []
        for matching in _partial_matchings(real_prev, real_next):
            x = np.zeros((n_prev, n_next))
            used_cols = set()
            for r, c in enumerate(matching):
                if c >= 0:
                    x[r, c] = 1.0
                    used_cols.add(c)
                elif virtual_last[k]:
                    x[r, n_next - 1] = 1.0
            if virtual_last[k - 1]:
                for c in range(real_next):
                    if c not in used_cols:
                        x[n_prev - 1, c] = 1.0
            options.append(x)
        pair_options.append(options)

    keep_all = feasible <= ALL_VALUES_LIMIT
    all_values: list[tuple[tuple, float]] | None = [] if keep_all else None

    best_value = -np.inf
    best_combo = None
    tie_count = 0
    for combo_idx in itertools.product(*[range(len(o)) for o in pair_options]):
        mats = [pair_options[k][combo_idx[k]] for k in range(K)]
        value = assignment_objective(affinity, mats)
        if all_values is not None:
            all_values.append((combo_idx, value))
        if value > best_value:
            best_value = value
            best_combo = combo_idx
            tie_count = 1
        elif value == best_value:
            tie_count += 1

    mats = [pair_options[k][best_combo[k]] for k in range(K)]
    z = mats[0]
    for m in mats[1:]:
        z = np.einsum("...a,ab->...ab", z, m)
    return BruteForceResult(z, float(best_value), tie_count, feasible, all_values)


def finite_diff_grad(f, x0: np.ndarray, h: float | None = None) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    The step for coordinate i defaults to ``1e-5 * |x_i| + 1e-8``.  A
    non-finite probe raises and names the offending coordinate.
    """
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    flat = x0.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        step = h if h is not None else 1e-5 * abs(flat[i]) + 1e-8
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += step
        xm[i] -= step
        fp = float(f(xp.reshape(x0.shape)))
        fm = float(f(xm.reshape(x0.shape)))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(
                f"non-finite probe at coordinate {np.unravel_index(i, x0.shape)}")
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad
