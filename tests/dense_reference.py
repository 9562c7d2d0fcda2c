"""Dense restatement of the power-iteration layer, the reference the sparse
solver is tested against, the small solver instances the tests draw, and
the dense views of the solver's log states: pair matrices as the
normalization's log input (:func:`log_matrices`) and the power iteration's
last iterate as pair matrices (:func:`last_matrices`).

The K-order pairwise tensor is built in full, one mode per frame pair over
the flattened I_{k-1} x I_k grid, and the forward and backward passes are
the einsum contractions of the rank-1 power iteration written on it.  The
tensor has prod_k I_{k-1} * I_k entries, so only small or single windows
belong here; the library itself never builds it.
"""

from dataclasses import dataclass

import numpy as np

from mdatrack.errors import ContractError, NumericError
from mdatrack.solver import (
    HypothesisTensor,
    LogMatrices,
    PairSupport,
    discretize,
    l1_normalize_forward,
    power_iteration_backward,
    power_iteration_forward,
)
from oracle_reference import assignment_objective

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def log_matrices(mats) -> LogMatrices:
    """Dense nonnegative pair matrices as the normalization's input: the
    logs of their nonzero entries."""
    mats = [np.asarray(m, dtype=float) for m in mats]
    for k, m in enumerate(mats):
        if m.ndim != 2:
            raise ContractError(f"pair {k} is not a matrix")
        if not np.isfinite(m).all():
            raise NumericError(f"pair {k} carries non-finite entries")
        if (m < 0).any():
            raise ContractError(f"pair {k} carries negative entries")
    flats = [np.flatnonzero(m) for m in mats]
    bounds = tuple(np.cumsum([0] + [len(f) for f in flats]).tolist())
    support = PairSupport(tuple(m.shape for m in mats),
                          np.concatenate([np.empty(0, dtype=np.intp)] + flats),
                          bounds)
    return LogMatrices(support, np.log(np.concatenate(
        [np.empty(0)] + [m.ravel()[f] for m, f in zip(mats, flats)])))


def last_matrices(state) -> list[np.ndarray]:
    """A power iteration's last iterate exponentiated, as dense pair
    matrices (0 off the support)."""
    return state.tensor.pair_support().scatter(np.exp(state.log_iterates[-1]))


def tuple_tensor(values: np.ndarray, mask: np.ndarray | None = None
                 ) -> HypothesisTensor:
    """The solver's tensor for a dense (K+1)-order tuple tensor: one
    hypothesis per tuple in ``mask`` (every tuple by default), in
    lexicographic order."""
    values = np.asarray(values, dtype=float)
    if mask is None:
        mask = np.ones(values.shape, dtype=bool)
    return HypothesisTensor(np.argwhere(mask), values[mask], values.shape)


def random_solver_instance(rng: np.random.Generator,
                           max_size: int = 3) -> HypothesisTensor:
    """The solver tensor of a random strictly positive tuple tensor on equal
    frame sizes (every tuple a hypothesis)."""
    n = int(rng.integers(1, max_size + 1))
    return tuple_tensor(rng.uniform(0.1, 1.0, size=(n, n, n)))


def make_planted_instance(rng: np.random.Generator, n: int,
                          planted_low: float = 0.5,
                          background_high: float = 0.25
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Affinity tensor whose entries along two planted permutations dominate
    the background by at least a factor of two."""
    values = rng.uniform(0.05, background_high, size=(n, n, n))
    sigma1 = rng.permutation(n)
    sigma2 = rng.permutation(n)
    for i0 in range(n):
        i1 = sigma1[i0]
        i2 = sigma2[i1]
        values[i0, i1, i2] = rng.uniform(planted_low, 1.0)
    return values, sigma1, sigma2


def solve_and_discretize(values: np.ndarray,
                         power_iterations: int = 10,
                         norm_pairs: int = 10) -> tuple[float, list[np.ndarray]]:
    """Full solver chain on a dense tuple tensor with no virtual slots;
    returns the achieved objective and the binary assignment matrices."""
    state = power_iteration_forward(tuple_tensor(values), power_iterations)
    norm = l1_normalize_forward(log_matrices(last_matrices(state)), norm_pairs)
    binary = discretize(norm.matrices())
    return assignment_objective(values, binary), binary


def reshape_to_pairwise(values: np.ndarray, valid_mask: np.ndarray) -> np.ndarray:
    """Reshape the (K+1)-order candidate-tuple tensor to the K-order tensor
    over flattened pair indices.

    Entry (j_1, ..., j_K) equals the tuple value when the shared frame index
    of every adjacent flat pair agrees, and zero otherwise, which is the
    unique rule preserving the multilinear objective across the reshape.
    """
    return pairwise_tensor(tuple_tensor(values, valid_mask))


def coordinates(tensor: HypothesisTensor) -> tuple[np.ndarray, ...]:
    """Pairwise-tensor coordinates of each hypothesis, computed tuple by
    tuple from the entries (not read from ``tensor.flat``)."""
    sizes, rows = tensor.sizes, tensor.entries.tolist()
    return tuple(np.array([row[k - 1] * sizes[k] + row[k] for row in rows],
                          dtype=np.intp)
                 for k in range(1, len(sizes)))


def pairwise_tensor(tensor: HypothesisTensor) -> np.ndarray:
    """The dense K-order pairwise tensor of a hypothesis list."""
    dense = np.zeros(tensor.shape)
    dense[coordinates(tensor)] = tensor.values
    return dense


def pairwise_objective(tensor: np.ndarray, x: list[np.ndarray]) -> float:
    """Full multilinear contraction of the pairwise tensor with the
    flattened assignment vectors."""
    subs = LETTERS[:tensor.ndim]
    return float(np.einsum(subs + "," + ",".join(subs) + "->", tensor, *x))


def partial_contraction(tensor: np.ndarray, vectors: list[np.ndarray],
                        free_mode: int) -> np.ndarray:
    """Contract the tensor with one vector per mode except ``free_mode``."""
    K = tensor.ndim
    subs = LETTERS[:K]
    inputs = [subs] + [subs[m] for m in range(K) if m != free_mode]
    operands = [tensor] + [vectors[m] for m in range(K) if m != free_mode]
    return np.einsum(",".join(inputs) + "->" + subs[free_mode], *operands)


def outer(vectors: list[np.ndarray]) -> np.ndarray:
    subs = LETTERS[:len(vectors)]
    return np.einsum(",".join(subs) + "->" + subs, *vectors)


@dataclass
class DenseRun:
    iterates: list[list[np.ndarray]]
    slices: list[list[np.ndarray]]
    constants: list[float]


def dense_forward(tensor: np.ndarray, num_iterations: int) -> DenseRun:
    """x_k <- x_k * (contraction with the other vectors) / C, all pairs
    synchronously from all-ones, C the full contraction."""
    K = tensor.ndim
    x = [np.ones(d) for d in tensor.shape]
    run = DenseRun([list(x)], [], [])
    for _ in range(num_iterations):
        slices = [partial_contraction(tensor, x, k) for k in range(K)]
        norm_const = float(x[0] @ slices[0])
        x = [x[k] * slices[k] / norm_const for k in range(K)]
        run.iterates.append(list(x))
        run.slices.append(slices)
        run.constants.append(norm_const)
    return run


def dense_backward(tensor: np.ndarray, run: DenseRun,
                   d_x_final: list[np.ndarray]
                   ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Dense tensor gradient and initial-vector gradient, accumulating

        dL/dT  +=  (outer_k x_k(n)) / C(n) * sum_k (e_{j_k} - x_k(n+1))^T g_k(n+1)

    per iteration and propagating the iterate gradients through the own
    slice, the shared normalizer and the cross-pair contractions."""
    K = tensor.ndim
    g = [np.asarray(v, dtype=float) for v in d_x_final]
    d_tensor = np.zeros_like(tensor)
    for n in reversed(range(len(run.constants))):
        xs, xs_next = run.iterates[n], run.iterates[n + 1]
        slices, norm_const = run.slices[n], run.constants[n]
        beta = sum(float(xs_next[k] @ g[k]) for k in range(K))
        term = -beta * outer(xs)
        for k in range(K):
            weighted = list(xs)
            weighted[k] = xs[k] * g[k]
            term += outer(weighted)
        d_tensor += term / norm_const
        new_g = []
        for k in range(K):
            cross = np.zeros_like(g[k])
            for m in range(K):
                if m != k:
                    weighted = list(xs)
                    weighted[m] = xs[m] * g[m]
                    cross += partial_contraction(tensor, weighted, k)
            new_g.append(slices[k] / norm_const * (g[k] - beta)
                         + cross / norm_const)
        g = new_g
    return d_tensor, g


def assert_close(actual, reference, tol: float = 1e-12) -> None:
    """|actual - reference| <= tol * max(1, max |reference|), elementwise."""
    actual = np.asarray(actual, dtype=float)
    reference = np.asarray(reference, dtype=float)
    assert actual.shape == reference.shape
    scale = max(1.0, float(np.max(np.abs(reference), initial=0.0)))
    worst = float(np.max(np.abs(actual - reference), initial=0.0))
    assert worst <= tol * scale, f"deviation {worst:.3e} at scale {scale:.3e}"


def dense_history(state) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """A power iteration's iterates and slices as dense stacked vectors,
    each log vector exponentiated, 0 off the support."""
    def dense(log_vector):
        out = np.zeros(state.tensor.offsets[-1])
        out[state.tensor.support] = np.exp(log_vector)
        return out
    return ([dense(v) for v in state.log_iterates],
            [dense(s) for s in state.log_slices])


def log_gradient(state, w: list[np.ndarray]) -> np.ndarray:
    """The gradient of sum_k <w_k, x_k> at the power iteration's last log
    iterate: the last iterate times ``w`` on the support."""
    return (np.exp(state.log_iterates[-1])
            * np.concatenate(w)[state.tensor.support])


def entry_gradient(state, d_log: np.ndarray) -> list[np.ndarray]:
    """A normalization's gradient at its input logs as the gradient at its
    dense input matrices: divided by each entry on the support, 0 off it."""
    return state.support.scatter(d_log / np.exp(state.stages[0]))


def assert_sparse_equals_dense(tensor: HypothesisTensor, num_iterations: int,
                               rng: np.random.Generator) -> None:
    """The sparse power iteration and its backward pass match the dense
    restatement to 1e-12: iterates after the start, slices, contraction
    constants, and the value gradient against the dense tensor gradient read
    at the hypotheses, for the loss sum_k <w_k, x_k> with ``w`` drawn from
    ``rng``: the sparse pass takes its gradient at the last log iterate,
    x_final * w, the dense one ``w``."""
    dense = pairwise_tensor(tensor)
    state = power_iteration_forward(tensor, num_iterations)
    run = dense_forward(dense, num_iterations)
    assert_close(state.contraction_history, run.constants)
    # pair by pair, so each pair's tolerance scales with its own values
    splits = state.tensor.offsets[1:-1]
    iterates, slices = dense_history(state)
    for sparse, dense_run in ((iterates[1:], run.iterates[1:]),
                              (slices, run.slices)):
        for stacked, per_pair in zip(sparse, dense_run, strict=True):
            for a, b in zip(np.split(stacked, splits), per_pair, strict=True):
                assert_close(a, b)

    w = [rng.normal(size=d) for d in tensor.shape]
    d_values = power_iteration_backward(state, log_gradient(state, w))
    d_tensor, _ = dense_backward(dense, run, w)
    assert_close(d_values, d_tensor[coordinates(tensor)])
