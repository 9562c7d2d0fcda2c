"""Self-verification suites: analytic gradients against central finite
differences, solver-plus-discretization against the brute-force search,
normalization constraint satisfaction, and format round-trips.

These back the `check` CLI mode; the pytest acceptance suite drives the
same machinery with the tolerances pinned there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evalio import (
    MotRecord,
    ScenarioSpec,
    clear_mot,
    format_mot_record,
    generate_scenario,
    parse_mot_line,
)
from .oracle import assignment_objective, brute_force_mda, finite_diff_grad
from .solver import (
    HypothesisTensor,
    bce_loss,
    discretize,
    l1_normalize_backward,
    l1_normalize_forward,
    power_iteration_backward,
    power_iteration_forward,
)

GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-7


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _grad_close(analytic: np.ndarray, numeric: np.ndarray,
                rtol: float = GRAD_RTOL, atol: float = GRAD_ATOL) -> bool:
    return bool(np.all(np.abs(analytic - numeric)
                       <= atol + rtol * np.abs(numeric)))


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
    norm = l1_normalize_forward(state.matrices(), norm_pairs)
    binary = discretize(norm.matrices())
    return assignment_objective(values, binary), binary


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def check_power_iteration_gradients(seeds=range(50), max_iters: int = 3) -> CheckResult:
    failures = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        tensor = random_solver_instance(rng)
        n_iter = int(rng.integers(1, max_iters + 1))
        w = [rng.normal(size=tensor.shape[k]) for k in range(2)]

        state = power_iteration_forward(tensor, n_iter)
        analytic, _ = power_iteration_backward(state, w)

        def loss(values):
            st = power_iteration_forward(
                tensor.with_values(values), n_iter)
            return sum(float(wk @ xk) for wk, xk in zip(w, st.x))

        numeric = finite_diff_grad(loss, tensor.values)
        if not _grad_close(analytic, numeric):
            failures.append(seed)
    return CheckResult(
        "power-iteration-gradient",
        not failures,
        f"{len(failures)} of {len(list(seeds))} seeds failed"
        + (f": {failures}" if failures else ""))


def check_normalization_gradients(seeds=range(50), max_pairs: int = 3) -> CheckResult:
    failures = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        mats = [rng.uniform(0.1, 1.0, size=(n, n)) for _ in range(2)]
        pairs = int(rng.integers(1, max_pairs + 1))
        w = [rng.normal(size=(n, n)) for _ in range(2)]

        state = l1_normalize_forward(mats, pairs)
        analytic = l1_normalize_backward(state, w)

        for k in range(2):
            def loss(mat, k=k):
                inputs = [m.copy() for m in mats]
                inputs[k] = mat
                st = l1_normalize_forward(inputs, pairs)
                return sum(float(np.sum(wk * xk))
                           for wk, xk in zip(w, st.matrices()))

            numeric = finite_diff_grad(loss, mats[k])
            if not _grad_close(analytic[k], numeric):
                failures.append((seed, k))
    return CheckResult(
        "normalization-gradient",
        not failures,
        f"{len(failures)} failures" + (f": {failures}" if failures else ""))


def check_bce_gradients(seeds=range(20)) -> CheckResult:
    failures = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        pred = [rng.uniform(0.05, 0.95, size=(n, n))]
        target = [(rng.uniform(size=(n, n)) > 0.5).astype(float)]
        _, grads = bce_loss(pred, target)
        numeric = finite_diff_grad(lambda p: bce_loss([p], target)[0], pred[0])
        if not np.all(np.abs(grads[0] - numeric)
                      <= 1e-9 + 1e-6 * np.abs(numeric)):
            failures.append(seed)
    return CheckResult("bce-gradient", not failures,
                       f"{len(failures)} failures")


def check_oracle_recovery(trials: int = 200, seed: int = 0,
                          required_rate: float = 0.95) -> CheckResult:
    rng = np.random.default_rng(seed)
    hits = 0
    failure_log = []
    for trial in range(trials):
        n = int(rng.integers(2, 5))
        values, _, _ = make_planted_instance(rng, n)
        achieved, _ = solve_and_discretize(values)
        oracle = brute_force_mda(values)
        if achieved >= oracle.best_value - 1e-9:
            hits += 1
        else:
            failure_log.append((trial, achieved, oracle.best_value,
                                values.tolist()))
    rate = hits / trials
    detail = f"recovered the optimum in {hits}/{trials} trials ({rate:.1%})"
    if failure_log:
        detail += f"; first failure instance: {failure_log[0]}"
    return CheckResult("oracle-recovery", rate >= required_rate, detail)


def check_constraint_satisfaction(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    problems = []
    for trial in range(20):
        n = int(rng.integers(2, 11))
        mat = rng.uniform(0.05, 1.0, size=(n, n))
        state = l1_normalize_forward([mat], 50)
        out = state.matrices()[0]
        if not (np.all(np.abs(out.sum(axis=1) - 1) <= 1e-6)
                and np.all(np.abs(out.sum(axis=0) - 1) <= 1e-6)):
            problems.append(trial)
    return CheckResult("constraint-satisfaction", not problems,
                       f"{len(problems)} of 20 matrices failed")


def check_format_roundtrip(seed: int = 0, count: int = 1000) -> CheckResult:
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(count):
        records.append(MotRecord(
            frame=int(rng.integers(1, 500)),
            id=int(rng.integers(-1, 50)),
            left=round(float(rng.uniform(-10, 600)), 6),
            top=round(float(rng.uniform(-10, 400)), 6),
            width=round(float(rng.uniform(1, 120)), 6),
            height=round(float(rng.uniform(1, 120)), 6),
            conf=round(float(rng.uniform(0, 1)), 6),
        ))
    lines = [format_mot_record(r) for r in records]
    reparsed = [parse_mot_line(line, i + 1) for i, line in enumerate(lines)]
    ok = reparsed == records
    if ok:
        spec = ScenarioSpec(frame_count=12, target_count=4, seed=seed)
        scenario = generate_scenario(spec)
        report = clear_mot(scenario.gt_tracks, scenario.gt_tracks)
        ok = (report.mota == 1.0 and report.id_switches == 0
              and report.false_positives == 0 and report.false_negatives == 0)
        return CheckResult("format-roundtrip", ok,
                           "round-trip exact; self-evaluation "
                           + ("perfect" if ok else f"imperfect: {report.summary()}"))
    return CheckResult("format-roundtrip", False, "record round-trip mismatch")


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    return [
        check_power_iteration_gradients(),
        check_normalization_gradients(),
        check_bce_gradients(),
        check_oracle_recovery(seed=seed),
        check_constraint_satisfaction(seed=seed),
        check_format_roundtrip(seed=seed),
    ]
