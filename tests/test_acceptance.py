"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one pass/fail line (run with ``pytest -s tests/test_acceptance.py``
to see them).  Thresholds marked "frozen" were fixed after the first oracle
run and must not be loosened.
"""

import time

import numpy as np
import pytest

from dense_reference import (
    assert_sparse_equals_dense,
    dense_history,
    entry_gradient,
    last_matrices,
    log_gradient,
    log_matrices,
    make_planted_instance,
    pairwise_objective,
    reshape_to_pairwise,
    solve_and_discretize,
    tuple_tensor,
)
from mdatrack.affinity import (
    AffinityProviderParams,
    ConnectionGateConfig,
    load_params,
)
from mdatrack.cli import RunConfig, cmd_train
from mdatrack.evalio import (
    MotRecord,
    ScenarioSpec,
    clear_mot,
    format_mot_record,
    generate_scenario,
    parse_mot_line,
)
from mdatrack.pipeline import GroundTruthQuality, PipelineConfig, run_sequence
from mdatrack.solver import (
    HypothesisTensor,
    l1_normalize_backward,
    l1_normalize_forward,
    power_iteration_backward,
    power_iteration_forward,
)
from oracle_reference import (
    assignment_objective,
    brute_force_mda,
    finite_diff_grad,
)

GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-7


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def grad_close(analytic, numeric):
    return bool(np.all(np.abs(analytic - numeric)
                       <= GRAD_ATOL + GRAD_RTOL * np.abs(numeric)))


def test_gradient_suite():
    """Analytic backward passes match central finite differences on 50
    random small instances within 1e-4 relative / 1e-7 absolute, in under
    a minute."""
    start = time.monotonic()
    power_failures = []
    norm_failures = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        iters = int(rng.integers(1, 4))
        pairs = int(rng.integers(1, 4))
        values = rng.uniform(0.1, 1.0, size=(n, n, n))
        tensor = tuple_tensor(values)
        w = [rng.normal(size=n * n) for _ in range(2)]

        state = power_iteration_forward(tensor, iters)
        analytic = power_iteration_backward(state, log_gradient(state, w))

        def power_loss(v):
            s = power_iteration_forward(
                HypothesisTensor(tensor.entries, v, tensor.sizes), iters)
            return sum(float(wk @ m.ravel())
                       for wk, m in zip(w, last_matrices(s)))

        if not grad_close(analytic,
                          finite_diff_grad(power_loss, tensor.values)):
            power_failures.append(seed)

        mats = [rng.uniform(0.1, 1.0, size=(n, n)) for _ in range(2)]
        wm = [rng.normal(size=(n, n)) for _ in range(2)]
        norm_state = l1_normalize_forward(log_matrices(mats), pairs)
        norm_grads = entry_gradient(
            norm_state, l1_normalize_backward(norm_state, wm))
        for k in range(2):
            def norm_loss(m, k=k):
                inputs = [x.copy() for x in mats]
                inputs[k] = m
                s = l1_normalize_forward(log_matrices(inputs), pairs)
                return sum(float(np.sum(a * b))
                           for a, b in zip(wm, s.matrices()))

            if not grad_close(norm_grads[k],
                              finite_diff_grad(norm_loss, mats[k])):
                norm_failures.append((seed, k))

    elapsed = time.monotonic() - start
    passed = not power_failures and not norm_failures and elapsed < 60.0
    report("gradient-suite", passed,
           f"50 seeds, power failures {power_failures}, "
           f"normalization failures {norm_failures}, {elapsed:.1f}s")
    assert not power_failures
    assert not norm_failures
    assert elapsed < 60.0


def test_oracle_suite():
    """Solver plus discretization attains the brute-force optimum on >= 95%
    of 200 planted instances and recovers identity on the canonical
    instance for all 50 seeds, in under two minutes."""
    start = time.monotonic()
    rng = np.random.default_rng(0)
    hits = 0
    failures = []
    for trial in range(200):
        n = int(rng.integers(2, 5))
        values, _, _ = make_planted_instance(rng, n)
        achieved, _ = solve_and_discretize(values)
        oracle = brute_force_mda(values)
        if achieved >= oracle.best_value - 1e-9:
            hits += 1
        else:
            failures.append({"trial": trial, "achieved": achieved,
                             "optimum": oracle.best_value,
                             "tensor": values.tolist()})
    for failure in failures:
        print(f"[oracle-suite failure] {failure}")

    identity_hits = 0
    for seed in range(50):
        jitter = np.random.default_rng(seed)
        values = 0.1 + jitter.uniform(-0.02, 0.02, size=(2, 2, 2))
        values[0, 0, 0] = values[1, 1, 1] = 1.0
        _, binary = solve_and_discretize(values)
        if (np.array_equal(binary[0], np.eye(2))
                and np.array_equal(binary[1], np.eye(2))):
            identity_hits += 1

    elapsed = time.monotonic() - start
    rate = hits / 200
    passed = rate >= 0.95 and identity_hits == 50 and elapsed < 120.0
    report("oracle-suite", passed,
           f"optimum rate {rate:.1%}, identity {identity_hits}/50, "
           f"{elapsed:.1f}s")
    assert rate >= 0.95
    assert identity_hits == 50
    assert elapsed < 120.0


def test_constraint_suite():
    """Full normalization drives every row/column sum to within 1e-6 of 1;
    with virtual slots every real row and real column still normalizes,
    and the virtual lines stay unconstrained and absorb the surplus."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 11))
        mat = rng.uniform(0.05, 1.0, size=(n, n))
        out = l1_normalize_forward(log_matrices([mat]), 50).matrices()[0]
        worst = max(worst,
                    float(np.abs(out.sum(axis=0) - 1).max()),
                    float(np.abs(out.sum(axis=1) - 1).max()))
    full_ok = worst <= 1e-6

    masked_ok = True
    surpluses = []
    for _ in range(10):
        rows = int(rng.integers(4, 11))
        cols = int(rng.integers(2, rows))   # real columns < real rows
        mat = rng.uniform(0.05, 1.0, size=(rows + 1, cols + 1))
        out = l1_normalize_forward(log_matrices([mat]), 50,
                                   virtual=True).matrices()[0]
        if (np.abs(out[:rows].sum(axis=1) - 1).max() > 1e-6
                or np.abs(out[:, :cols].sum(axis=0) - 1).max() > 1e-6):
            masked_ok = False
        surpluses.append(float(out[:, cols].sum() - out[rows].sum()))
        # the virtual column absorbs the real rows' surplus over the real
        # columns, net of what the virtual row holds
        if abs(surpluses[-1] - (rows - cols)) > 1e-4:
            masked_ok = False

    passed = full_ok and masked_ok
    report("constraint-suite", passed,
           f"worst full-normalization deviation {worst:.2e}; "
           f"virtual column minus virtual row "
           f"{['%.3f' % s for s in surpluses[:3]]}...")
    assert full_ok
    assert masked_ok


def test_energy_identity_suite():
    """The sparse solver equals a dense restatement to 1e-12 on 100 random
    instances: the dense pairwise reshape preserves the multilinear
    objective, the sparse solver's contraction constant equals it, and the
    sparse forward and backward passes equal the dense ones."""
    rng = np.random.default_rng(2)
    gradient_rng = np.random.default_rng(3)    # keeps rng's instances as they were
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        mask = rng.uniform(size=(n, n, n)) > 0.25
        values = rng.uniform(size=(n, n, n)) * mask
        pairwise = reshape_to_pairwise(values, mask)
        xs = [rng.uniform(size=n * n), rng.uniform(size=n * n)]
        lhs = pairwise_objective(pairwise, xs)
        rhs = assignment_objective(values, [x.reshape(n, n) for x in xs])
        worst = max(worst, abs(lhs - rhs))
        if values.any():
            tensor = tuple_tensor(values, mask)
            # the contraction constant is the objective at the iteration's
            # start: the all-ones start, then the first iterate
            sparse = power_iteration_forward(tensor, 2)
            for step, iterate in enumerate(dense_history(sparse)[0][:2]):
                start = np.split(iterate, tensor.offsets[1:-1])
                worst = max(worst, abs(sparse.contraction_history[step]
                                       - pairwise_objective(pairwise, start)))
            assert_sparse_equals_dense(tensor, 3, gradient_rng)
    passed = worst <= 1e-12
    report("energy-identity-suite", passed, f"worst deviation {worst:.2e}")
    assert worst <= 1e-12


SCENARIO_SEED = 7


def noisy_spec():
    return ScenarioSpec(frame_count=50, target_count=10, noise_sigma=1.0,
                        miss_probability=0.1, false_positive_rate=0.2,
                        seed=SCENARIO_SEED)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Run the training command once; the tracking criterion reuses it."""
    out = tmp_path_factory.mktemp("train") / "params.txt"
    cfg = RunConfig(seed=SCENARIO_SEED, scenario=noisy_spec())
    rc = cmd_train(cfg, gt_path=None, out_path=str(out))
    assert rc == 0
    curve_path = out.parent / (out.name + ".loss")
    losses = [float(line.split()[1])
              for line in curve_path.read_text().splitlines()]
    return load_params(out), losses


def test_end_to_end_training(trained):
    """50 epochs of cmd_train on the noisy 10-target set halve the mean
    binary cross entropy (threshold frozen after the first oracle run)."""
    _, losses = trained
    assert len(losses) == 50
    ratio = losses[-1] / losses[0]
    passed = ratio < 0.5
    report("end-to-end-training", passed,
           f"epoch-0 loss {losses[0]:.4f}, final {losses[-1]:.4f}, "
           f"ratio {ratio:.3f} (< 0.5 required)")
    assert ratio < 0.5


def test_end_to_end_tracking(trained):
    """Noiseless: MOTA 1.0 and zero switches.  Noisy with trained
    parameters: at most 2 identity switches for 10 targets over 50 frames
    (bound frozen after the first oracle run).  Under five minutes."""
    start = time.monotonic()
    params, _ = trained

    clean = generate_scenario(ScenarioSpec(frame_count=50, target_count=10,
                                           seed=SCENARIO_SEED))
    clean_tracks = run_sequence(clean.detection_frames, ConnectionGateConfig(),
                                AffinityProviderParams(), PipelineConfig(),
                                GroundTruthQuality(clean.gt_tracks))
    clean_report = clear_mot(clean.gt_tracks,
                             {t.id: t.boxes for t in clean_tracks})

    noisy = generate_scenario(noisy_spec())
    noisy_tracks = run_sequence(noisy.detection_frames, ConnectionGateConfig(),
                                params, PipelineConfig(),
                                GroundTruthQuality(noisy.gt_tracks))
    noisy_report = clear_mot(noisy.gt_tracks,
                             {t.id: t.boxes for t in noisy_tracks})

    elapsed = time.monotonic() - start
    passed = (clean_report.mota == 1.0 and clean_report.id_switches == 0
              and noisy_report.id_switches <= 2 and elapsed < 300.0)
    report("end-to-end-tracking", passed,
           f"noiseless MOTA {clean_report.mota:.4f} IDS "
           f"{clean_report.id_switches}; noisy IDS "
           f"{noisy_report.id_switches} (<= 2 required); {elapsed:.1f}s")
    assert clean_report.mota == 1.0
    assert clean_report.id_switches == 0
    assert noisy_report.id_switches <= 2
    assert elapsed < 300.0


def test_format_suite():
    """A 1000-record corpus round-trips bit-exactly and self-evaluation is
    perfect on every generated scenario."""
    rng = np.random.default_rng(3)
    records = [
        MotRecord(
            frame=int(rng.integers(1, 400)),
            id=int(rng.integers(-1, 60)),
            left=round(float(rng.uniform(-10, 600)), 6),
            top=round(float(rng.uniform(-10, 400)), 6),
            width=round(float(rng.uniform(1, 150)), 6),
            height=round(float(rng.uniform(1, 150)), 6),
            conf=round(float(rng.uniform(0, 1)), 6),
        )
        for _ in range(1000)
    ]
    lines = [format_mot_record(r) for r in records]
    reparsed = [parse_mot_line(line, i + 1) for i, line in enumerate(lines)]
    roundtrip_ok = reparsed == records

    eval_ok = True
    for seed in range(5):
        scenario = generate_scenario(ScenarioSpec(
            frame_count=15, target_count=4, seed=seed))
        rep = clear_mot(scenario.gt_tracks, scenario.gt_tracks)
        if not (rep.mota == 1.0 and rep.motp == pytest.approx(1.0)
                and rep.id_switches == 0 and rep.false_positives == 0
                and rep.false_negatives == 0):
            eval_ok = False

    passed = roundtrip_ok and eval_ok
    report("format-suite", passed,
           f"round-trip exact: {roundtrip_ok}; "
           f"self-evaluation perfect on 5 scenarios: {eval_ok}")
    assert roundtrip_ok
    assert eval_ok
