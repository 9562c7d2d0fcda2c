"""Gate, hypothesis generation, provider scores and their gradients."""

import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dense_reference import (
    pairwise_objective,
    pairwise_tensor,
    reshape_to_pairwise,
)
from mdatrack.affinity import (
    AffinityProviderParams,
    ConnectionGateConfig,
    backprop_affinity,
    compute_affinity,
    generate_hypotheses,
    load_params,
    rescore_affinity,
    save_params,
)
from mdatrack.errors import ContractError, InputValidationError
from mdatrack import affinity, pipeline
from mdatrack.evalio import ScenarioSpec, generate_scenario, load_mot
from mdatrack.solver import _pair_flat_indices
from mdatrack.types import (
    AssociationBatch,
    Candidate,
    batch_windows,
    descriptor_similarity,
)
from oracle_reference import assignment_objective, finite_diff_grad


def cand(frame, cx, cy, w=20.0, h=20.0, appearance=None, score=1.0):
    if appearance is None:
        appearance = np.ones(8)
    return Candidate(frame_index=frame, center=(cx, cy),
                     box=(cx - w / 2, cy - h / 2, w, h), score=score,
                     appearance=np.asarray(appearance, dtype=float))


class CountingFactor(float):
    """A relaxation factor that counts its powers: the gate takes one per
    relaxed level it builds."""

    powers = 0

    def __pow__(self, exponent):
        self.powers += 1
        return float(self) ** exponent


def make_batch(per_frame, virtual=False):
    return AssociationBatch(frames=tuple(range(len(per_frame))),
                            candidates=tuple(tuple(f) for f in per_frame),
                            virtual=virtual)


def slots(per_frame, virtual):
    """Each frame's window slots for the restatements below: its
    candidates, then ``None`` for the virtual slot of a window with one."""
    return [list(f) + [None] * virtual for f in per_frame]


def gate_oracle(a, b, factor, bounds):
    """Direct restatement of the gate predicate for brute-force checks."""
    dist = math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
    diag = max(math.hypot(a.box[2], a.box[3]), math.hypot(b.box[2], b.box[3]))
    low, high = bounds
    return (dist <= factor * diag
            and low <= b.box[2] / a.box[2] <= high
            and low <= b.box[3] / a.box[3] <= high)


def edges_oracle(prev, nxt, gate):
    """Plain-loop restatement of the gate between two frames' slots (see
    :func:`slots`): virtual lines connect to everything; each real row
    without a partner, then each real column still without one, takes every
    partner of the first relaxed level that admits any."""
    bounds = gate.size_ratio_bounds
    edges = {(i, j) for i, a in enumerate(prev) for j, b in enumerate(nxt)
             if a is None or b is None
             or gate_oracle(a, b, gate.base_distance_factor, bounds)}
    factors = [gate.base_distance_factor * gate.relaxation_factor ** r
               for r in range(1, gate.max_relaxations + 1)]
    for i, a in enumerate(prev):
        if a is None or any(e[0] == i for e in edges):
            continue
        for factor in factors:
            found = {(i, j) for j, b in enumerate(nxt)
                     if gate_oracle(a, b, factor, bounds)}
            if found:
                edges |= found
                break
    for j, b in enumerate(nxt):
        if b is None or any(e[1] == j for e in edges):
            continue
        for factor in factors:
            found = {(i, j) for i, a in enumerate(prev)
                     if gate_oracle(a, b, factor, bounds)}
            if found:
                edges |= found
                break
    return edges


def hypotheses_oracle(frames, gate):
    """Every index tuple of the frames' slots, in lexicographic order, whose
    consecutive pairs are gate edges and whose anchor member (frame K // 2)
    is real."""
    edges = [edges_oracle(frames[k], frames[k + 1], gate)
             for k in range(len(frames) - 1)]
    anchor = (len(frames) - 1) // 2
    return [list(t) for t in itertools.product(*(range(len(f)) for f in frames))
            if all((t[k], t[k + 1]) in edges[k] for k in range(len(edges)))
            and frames[anchor][t[anchor]] is not None]


def affinity_oracle(frames, row, params, virtual_scale, resolved):
    """Scalar restatement of one hypothesis's provider score over the
    frames' slots."""
    K = len(row) - 1
    anchor_pos = K // 2
    anchor = frames[anchor_pos][row[anchor_pos]]
    members = []
    for pos, i in enumerate(row):
        c = frames[pos][i]
        if c is None:
            members.append((tuple(resolved[pos][row[anchor_pos]]),
                            anchor.box[2:], anchor.appearance))
        else:
            members.append((c.center, c.box[2:], c.appearance))

    def similarity(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na < 1e-12 or nb < 1e-12:
            return 0.5
        return max(0.0, float(np.dot(a, b)) / (na * nb)) ** 2

    sigma = params.position_scale
    score, size_sims = 0.0, []
    for (p, s, a), (q, t, b) in zip(members, members[1:]):
        gauss = math.exp(-((q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2)
                         / (2 * sigma * sigma))
        size_sims.append(min(s[0], t[0]) / max(s[0], t[0])
                         * min(s[1], t[1]) / max(s[1], t[1]))
        score += (params.appearance_weight * similarity(a, b) * gauss
                  + params.motion_weight * gauss
                  + params.size_weight * size_sims[-1])
    accel = sum(math.hypot(members[t + 1][0][0] - 2 * members[t][0][0]
                           + members[t - 1][0][0],
                           members[t + 1][0][1] - 2 * members[t][0][1]
                           + members[t - 1][0][1]) for t in range(1, K))
    score += (params.long_term_weight * math.exp(-accel / sigma)
              * math.prod(size_sims) ** (1.0 / K))
    virtuals = sum(frames[pos][i] is None for pos, i in enumerate(row))
    return virtual_scale ** virtuals * score


class TestGenerateHypotheses:
    def test_two_far_targets_give_two_hypotheses(self):
        # brute-force gate evaluation over all 8 tuples finds exactly the
        # two per-target trajectories
        frames = [[cand(f, 50.0, 50.0), cand(f, 400.0, 300.0)]
                  for f in range(3)]
        gate = ConnectionGateConfig(max_relaxations=0)
        batch = make_batch(frames)
        hyps = generate_hypotheses(batch, gate)

        expected = []
        for tup in itertools.product(range(2), repeat=3):
            ok = all(gate_oracle(frames[k][tup[k]], frames[k + 1][tup[k + 1]],
                                 gate.base_distance_factor,
                                 gate.size_ratio_bounds)
                     for k in range(2))
            if ok:
                expected.append(tup)
        assert [tuple(h) for h in hyps.tolist()] == expected
        assert len(hyps) == 2

    def test_single_candidate_per_frame(self):
        frames = [[cand(f, 100.0, 100.0)] for f in range(3)]
        hyps = generate_hypotheses(make_batch(frames), ConnectionGateConfig())
        assert hyps.tolist() == [[0, 0, 0]]

    def test_isolated_candidate_recovered_by_relaxation(self):
        # frame-1 candidate sits beyond the base threshold (one diagonal)
        # but inside base * relaxation_factor
        diag = math.hypot(20.0, 20.0)
        frames = [
            [cand(0, 100.0, 100.0)],
            [cand(1, 100.0 + 1.5 * diag, 100.0)],
            [cand(2, 100.0 + 3.0 * diag, 100.0)],
        ]
        gate = ConnectionGateConfig(base_distance_factor=1.0,
                                    relaxation_factor=2.0, max_relaxations=2)
        hyps = generate_hypotheses(make_batch(frames), gate)
        assert len(hyps) == 1
        strict = ConnectionGateConfig(base_distance_factor=1.0,
                                      relaxation_factor=2.0, max_relaxations=0)
        assert len(generate_hypotheses(make_batch(frames), strict)) == 0

    def test_virtual_connects_unconditionally(self):
        frames = [[cand(0, 0.0, 0.0)], [cand(1, 500.0, 500.0)],
                  [cand(2, 500.0, 500.0)]]
        gate = ConnectionGateConfig(max_relaxations=0)
        hyps = generate_hypotheses(make_batch(frames, virtual=True), gate)
        # the real frame-0 candidate is out of range, the virtual is not
        assert [1, 0, 0] in hyps.tolist()

    def test_gate_monotone_in_base_distance_factor(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            frames = [[cand(f, *rng.uniform(0, 300, 2),
                            w=rng.uniform(15, 30), h=rng.uniform(15, 30))
                       for _ in range(3)] for f in range(3)]
            batch = make_batch(frames)
            small = generate_hypotheses(batch, ConnectionGateConfig(
                base_distance_factor=1.0, max_relaxations=0))
            large = generate_hypotheses(batch, ConnectionGateConfig(
                base_distance_factor=2.5, max_relaxations=0))
            assert ({tuple(h) for h in small.tolist()}
                    <= {tuple(h) for h in large.tolist()})


    def test_column_without_partner_is_relaxed(self):
        # frame-1 candidate 1 is beyond every base threshold; frame 0's only
        # row already has a partner, so the unpartnered column relaxes
        diag = math.hypot(20.0, 20.0)
        far = 100.0 + 1.5 * diag
        frames = [
            [cand(0, 100.0, 100.0)],
            [cand(1, 100.0, 100.0), cand(1, far, 100.0)],
            [cand(2, far, 100.0), cand(2, 100.0, 100.0)],
        ]
        batch = make_batch(frames)
        gate = ConnectionGateConfig(max_relaxations=1)
        hyps = generate_hypotheses(batch, gate)
        assert hyps.tolist() == [[0, 0, 1], [0, 1, 0]]
        assert hyps.tolist() == hypotheses_oracle(frames, gate)
        strict = ConnectionGateConfig(max_relaxations=0)
        assert generate_hypotheses(batch, strict).tolist() == [[0, 0, 1]]

    def test_relaxation_stops_at_first_level_that_adds(self):
        # row 0 of frame 0 reaches candidate 0 of frame 1 at the first
        # relaxed level and candidate 1 only at the second; candidate 1 has
        # its own partner, so neither side relaxes to the second level
        diag = math.hypot(20.0, 20.0)
        near, farther = 1.5 * diag, 3.5 * diag
        frames = [
            [cand(0, 100.0, 100.0), cand(0, 100.0, 100.0 + farther)],
            [cand(1, 100.0 + near, 100.0), cand(1, 100.0, 100.0 + farther)],
            [cand(2, 100.0 + near, 100.0), cand(2, 100.0, 100.0 + farther)],
        ]
        gate = ConnectionGateConfig(relaxation_factor=2.0, max_relaxations=2)
        hyps = generate_hypotheses(make_batch(frames), gate)
        assert hyps.tolist() == [[0, 0, 0], [1, 1, 1]]
        assert hyps.tolist() == hypotheses_oracle(frames, gate)

    def test_no_level_is_built_for_lines_without_a_size_compatible_partner(
            self):
        # frame 1's candidate is 2.5 times frame 0's in each side, outside
        # the size bounds: no relaxed level can partner either line, so none
        # is built, however many the gate allows
        frames = [[cand(0, 100.0, 100.0)], [cand(1, 100.0, 100.0, 50.0, 50.0)],
                  [cand(2, 100.0, 100.0, 50.0, 50.0)]]
        arrays = make_batch(frames).arrays
        factor = CountingFactor(1.0000001)
        gate = ConnectionGateConfig(relaxation_factor=factor,
                                    max_relaxations=100_000)
        factor.powers = 0
        mask = affinity._pair_mask(arrays[0], arrays[1], gate)
        assert factor.powers == 0
        assert not mask.any()

    def test_levels_stop_once_every_line_has_a_partner(self):
        # frame 1's candidate is 2.5 diagonals away: the second relaxed
        # level finds it for the row, and the column then has its partner
        diag = math.hypot(20.0, 20.0)
        far = 100.0 + 2.5 * diag
        frames = [[cand(0, 100.0, 100.0)], [cand(1, far, 100.0)],
                  [cand(2, far, 100.0)]]
        arrays = make_batch(frames).arrays
        factor = CountingFactor(2.0)
        gate = ConnectionGateConfig(relaxation_factor=factor,
                                    max_relaxations=1000)
        factor.powers = 0
        mask = affinity._pair_mask(arrays[0], arrays[1], gate)
        assert factor.powers == 2
        assert mask.tolist() == [[True]]

    @pytest.mark.parametrize("with_virtuals", [False, True])
    def test_random_windows_match_the_restatement(self, with_virtuals):
        # a window has a virtual slot on every frame, and then K = 2, or on
        # none
        rng = np.random.default_rng(41 + with_virtuals)
        for _ in range(150):
            K = 2 if with_virtuals else int(rng.integers(2, 4))
            frames = [[cand(f, *rng.uniform(0, 160, 2),
                            w=rng.uniform(8, 40), h=rng.uniform(8, 40))
                       for _ in range(int(rng.integers(0, 5)))]
                      for f in range(K + 1)]
            gate = ConnectionGateConfig(
                base_distance_factor=rng.uniform(0.3, 1.5),
                relaxation_factor=rng.uniform(1.2, 3.0),
                max_relaxations=int(rng.integers(0, 4)))
            hyps = generate_hypotheses(make_batch(frames, with_virtuals), gate)
            assert hyps.shape == (len(hyps), K + 1)
            assert hyps.tolist() == hypotheses_oracle(
                slots(frames, with_virtuals), gate)

    def test_memory_follows_the_edges_not_the_frame_sizes(self):
        # 300 moving targets per frame, each frame ending in a virtual slot
        # as while tracking: a dense I0 x I1 x I2 mask would take 27 MB
        rng = np.random.default_rng(3)
        starts = rng.uniform(0, 3000, (300, 2))
        steps = rng.normal(0, 4, (300, 2))
        frames = [[cand(f, *(start + f * step), w=30.0, h=40.0)
                   for start, step in zip(starts, steps)] for f in range(3)]
        batch = make_batch(frames, virtual=True)
        gate = ConnectionGateConfig()
        masks = [affinity._pair_mask(batch.arrays[k], batch.arrays[k + 1],
                                     gate) for k in range(2)]
        tracemalloc.start()
        try:
            hyps = generate_hypotheses(batch, gate)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_bytes = 301 ** 3
        assert peak < dense_bytes // 4, peak
        # the dense mask, with the anchor's virtual slot cleared, as reference
        valid = masks[0][:, :, None] & masks[1][None]
        valid[:, -1] = False
        assert np.array_equal(hyps, np.argwhere(valid))
        assert len(hyps) >= 300

    def test_tracking_never_relaxes_the_gate(self, monkeypatch):
        # every tracking frame ends in a virtual slot, which connects to
        # every line, so no real line is left without a partner and the
        # relaxed levels are never read
        scenario = generate_scenario(ScenarioSpec(
            frame_count=8, target_count=40, seed=0, noise_sigma=1.0,
            miss_probability=0.1, false_positive_rate=0.2))
        strict = ConnectionGateConfig(max_relaxations=0)
        pair_mask = affinity._pair_mask
        masks = []

        def checked(prev, nxt, gate):
            mask = pair_mask(prev, nxt, gate)
            assert gate.max_relaxations == 2
            assert np.array_equal(mask, pair_mask(prev, nxt, strict))
            masks.append(mask)
            return mask

        monkeypatch.setattr(affinity, "_pair_mask", checked)
        pipeline.run_sequence(
            scenario.detection_frames, ConnectionGateConfig(),
            AffinityProviderParams(), pipeline.PipelineConfig(),
            pipeline.GroundTruthQuality(scenario.gt_tracks))
        assert len(masks) == 2 * 6


class TestDescriptorSimilarity:
    @staticmethod
    def similarity(a, b):
        a, b = np.asarray(a, float), np.asarray(b, float)
        return descriptor_similarity(a, np.linalg.norm(a, axis=-1),
                                     b, np.linalg.norm(b, axis=-1))

    def test_zero_descriptor_is_neutral(self):
        zero, some = np.zeros(8), np.arange(1.0, 9.0)
        assert self.similarity(zero, some) == 0.5
        assert self.similarity(some, zero) == 0.5
        assert self.similarity(zero, zero) == 0.5

    def test_negative_cosine_clips_to_zero(self):
        some = np.arange(1.0, 9.0)
        assert self.similarity(some, -some) == 0.0
        assert self.similarity(some, some) == pytest.approx(1.0)

    def test_rows_match_the_scalar_rule(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(50, 24)), rng.normal(size=(50, 24))
        b[:5] = 0.0
        expected = []
        for x, y in zip(a, b):
            nx, ny = np.linalg.norm(x), np.linalg.norm(y)
            if nx < 1e-12 or ny < 1e-12:
                expected.append(0.5)
            else:
                expected.append(max(0.0, np.dot(x, y) / (nx * ny)) ** 2)
        np.testing.assert_allclose(self.similarity(a, b), expected,
                                   rtol=0, atol=1e-15)
        # broadcast anchors x detections, as virtual resolution uses it
        grid = self.similarity(a[:4, None, :], b[None, :6, :])
        assert grid.shape == (4, 6)
        np.testing.assert_allclose(
            grid, [[self.similarity(x, y) for y in b[:6]] for x in a[:4]],
            rtol=0, atol=1e-15)

    def test_file_input_scores_appearance_neutral(self):
        text = "".join(f"{f},-1,{90 + 2 * f},90,20,20,0.9\n" for f in (1, 2, 3))
        frames = load_mot(io.StringIO(text))
        batch = make_batch(frames)
        bundle = compute_affinity(batch, generate_hypotheses(
            batch, ConnectionGateConfig()), AffinityProviderParams())
        assert bundle.appearance_edges.tolist() == [[0.5, 0.5]]


class TestComputeAffinity:
    def test_identical_candidates_attain_the_maximum(self):
        # zero motion, perfect appearance: every attenuation factor at its
        # optimum, so no same-geometry perturbation can score higher
        frames = [[cand(f, 100.0, 100.0)] for f in range(3)]
        batch = make_batch(frames)
        params = AffinityProviderParams()
        bundle = compute_affinity(batch, generate_hypotheses(
            batch, ConnectionGateConfig()), params)
        (best,) = bundle.tensor.values

        rng = np.random.default_rng(23)
        for _ in range(30):
            shifted = [[cand(f, 100.0 + rng.uniform(-15, 15),
                             100.0 + rng.uniform(-15, 15),
                             appearance=rng.normal(size=8))] for f in range(3)]
            b2 = make_batch(shifted)
            (v,) = compute_affinity(b2, generate_hypotheses(
                b2, ConnectionGateConfig()), params).tensor.values
            assert v <= best + 1e-12

    def test_values_zero_outside_hypothesis_set(self):
        frames = [[cand(f, 50.0, 50.0), cand(f, 400.0, 300.0)]
                  for f in range(3)]
        batch = make_batch(frames)
        hyps = generate_hypotheses(batch, ConnectionGateConfig(max_relaxations=0))
        bundle = compute_affinity(batch, hyps, AffinityProviderParams())
        assert bundle.tensor.values.shape == (len(hyps),)
        assert np.all(bundle.tensor.values >= 0.0)
        # the solver's tensor is non-zero only at the hypotheses
        dense = pairwise_tensor(bundle.tensor)
        outside = np.ones(dense.shape, dtype=bool)
        outside[_pair_flat_indices(hyps, batch.sizes)] = False
        assert np.all(dense[outside] == 0.0)

    def test_tensor_holds_the_hypotheses(self):
        # the provider hands the solver its tensor: the generated tuples,
        # the window's frame sizes and one value per hypothesis
        frames = [[cand(f, 50.0 + f, 50.0), cand(f, 60.0, 52.0 + f)]
                  for f in range(3)]
        batch = make_batch(frames, virtual=True)
        hyps = generate_hypotheses(batch, ConnectionGateConfig())
        resolved = {pos: np.array([[51.0, 50.0], [60.0, 53.0], [np.nan] * 2])
                    for pos in (0, 2)}
        tensor = compute_affinity(batch, hyps, AffinityProviderParams(),
                                  resolved_virtuals=resolved).tensor
        assert np.array_equal(tensor.entries, hyps)
        assert tensor.sizes == batch.sizes
        assert tensor.values.shape == (len(hyps),)

    def test_empty_hypotheses_rejected(self):
        frames = [[cand(f, 50.0, 50.0)] for f in range(3)]
        with pytest.raises(ContractError):
            compute_affinity(make_batch(frames), [], AffinityProviderParams())

    def test_non_finite_descriptor_rejected(self):
        bad = np.ones(8)
        bad[3] = np.inf
        frames = [[cand(0, 1, 1)], [cand(1, 1, 1, appearance=bad)],
                  [cand(2, 1, 1)]]
        batch = make_batch(frames)
        hyps = generate_hypotheses(batch, ConnectionGateConfig())
        with pytest.raises(InputValidationError):
            compute_affinity(batch, hyps, AffinityProviderParams())

    def test_appearance_weight_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        frames = [[cand(f, 100.0 + 3 * f, 100.0,
                        appearance=rng.normal(size=8))] for f in range(3)]
        batch = make_batch(frames)
        hyps = generate_hypotheses(batch, ConnectionGateConfig())
        base = AffinityProviderParams()

        def c_of_aw(aw):
            p = AffinityProviderParams(
                appearance_weight=float(aw[0]),
                motion_weight=base.motion_weight,
                position_scale=base.position_scale,
                size_weight=base.size_weight,
                long_term_weight=base.long_term_weight)
            (value,) = compute_affinity(batch, hyps, p).tensor.values
            return value

        numeric = finite_diff_grad(c_of_aw, np.array([base.appearance_weight]))
        bundle = compute_affinity(batch, hyps, base)
        _, _, _, d_appearance, _ = backprop_affinity(bundle, np.array([1.0]))
        assert abs(d_appearance - numeric[0]) <= 1e-5 * abs(numeric[0])


    def test_random_windows_match_the_scalar_restatement(self):
        # tracking-shaped windows: a virtual slot ends every frame, the
        # adjacent-frame virtuals take per-anchor resolved centers
        rng = np.random.default_rng(53)
        params = AffinityProviderParams(position_scale=25.0, size_weight=0.7)
        for _ in range(40):
            frames = [[cand(f, *rng.uniform(0, 80, 2), w=rng.uniform(15, 30),
                            h=rng.uniform(15, 30), appearance=rng.normal(size=8))
                       for _ in range(int(rng.integers(1, 4)))]
                      for f in range(3)]
            batch = make_batch(frames, virtual=True)
            anchors = batch.sizes[1]
            resolved = {pos: rng.uniform(0, 80, size=(anchors, 2))
                        for pos in (0, 2)}
            for table in resolved.values():
                table[-1] = np.nan                  # the virtual anchor slot
            hyps = generate_hypotheses(batch, ConnectionGateConfig())
            bundle = compute_affinity(batch, hyps, params, virtual_scale=0.8,
                                      resolved_virtuals=resolved)
            expected = [affinity_oracle(slots(frames, True), row, params,
                                        0.8, resolved)
                        for row in hyps.tolist()]
            np.testing.assert_allclose(bundle.tensor.values, expected,
                                       rtol=1e-12, atol=0)

    def test_row_through_the_anchor_virtual_rejected(self):
        # the anchor-frame virtual has no geometry: the gate emits no row
        # through it, and a row passed in by hand is refused, not scored
        frames = [[cand(f, 50.0, 50.0)] for f in range(3)]
        batch = make_batch(frames, virtual=True)
        resolved = {pos: np.array([[50.0, 50.0], [np.nan] * 2])
                    for pos in (0, 2)}
        hyps = generate_hypotheses(batch, ConnectionGateConfig())
        assert hyps.tolist() == [[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 0, 1]]
        compute_affinity(batch, hyps, AffinityProviderParams(),
                         resolved_virtuals=resolved)
        with pytest.raises(ContractError, match=r"^hypothesis \[1, 1, 0\] "
                           r"passes through the anchor-frame virtual slot$"):
            compute_affinity(batch, np.array([[0, 0, 0], [1, 1, 0]]),
                             AffinityProviderParams(),
                             resolved_virtuals=resolved)

    def test_virtual_window_of_other_order_rejected(self):
        # virtual slots stand between one anchor frame and its two
        # neighbours; no program path builds a K = 3 window with them
        frames = [[cand(f, 50.0, 50.0)] for f in range(4)]
        with pytest.raises(ContractError, match=r"^a window with virtual "
                           r"slots must have K = 2, got 3$"):
            make_batch(frames, virtual=True)

    def test_missing_resolution_rejected(self):
        frames = [[cand(f, 50.0, 50.0)] for f in range(3)]
        batch = make_batch(frames, virtual=True)
        hyps = generate_hypotheses(batch, ConnectionGateConfig())
        with pytest.raises(ContractError):
            compute_affinity(batch, hyps, AffinityProviderParams())
        with pytest.raises(ContractError):
            compute_affinity(batch, hyps, AffinityProviderParams(),
                             resolved_virtuals={0: np.zeros((2, 2))})


STATISTICS = ("appearance_edges", "squared_distances", "size_sum",
              "acceleration", "size_smoothness", "virtual_scale")
RESCORE_PARAMS = [AffinityProviderParams(),
                  AffinityProviderParams(motion_weight=0.3, position_scale=15.0,
                                         size_weight=1.0, appearance_weight=0.3,
                                         long_term_weight=0.5),
                  AffinityProviderParams(motion_weight=0.0, size_weight=0.0,
                                         appearance_weight=0.0,
                                         long_term_weight=0.0)]


def assert_bundles_equal(a, b):
    assert a.params == b.params
    assert a.tensor.sizes == b.tensor.sizes
    assert np.array_equal(a.tensor.entries, b.tensor.entries)
    assert np.array_equal(a.tensor.values, b.tensor.values)
    for name in STATISTICS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_rescoring_is_exact(batch, hyps, **kwargs):
    """Scoring a bundle built under one parameter set again under each other
    set gives exactly the bundle built under that set."""
    for first, then in itertools.permutations(RESCORE_PARAMS, 2):
        built = compute_affinity(batch, hyps, first, **kwargs)
        values = built.tensor.values.copy()
        rescored = rescore_affinity(built, then)
        assert_bundles_equal(rescored,
                             compute_affinity(batch, hyps, then, **kwargs))
        # the layout is shared and the bundle scored first is left as it is
        assert rescored.tensor.order is built.tensor.order
        assert built.params == first
        assert np.array_equal(built.tensor.values, values)


class TestRescoreAffinity:
    def test_tracking_windows(self):
        scenario = generate_scenario(ScenarioSpec(
            frame_count=12, target_count=10, seed=0, noise_sigma=1.0,
            miss_probability=0.1, false_positive_rate=0.2))
        calls = []
        compute = pipeline.compute_affinity

        def record(*args, **kwargs):
            calls.append((args, kwargs))
            return compute(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "compute_affinity", record)
            pipeline.run_sequence(
                scenario.detection_frames, ConnectionGateConfig(),
                AffinityProviderParams(), pipeline.PipelineConfig(),
                pipeline.GroundTruthQuality(scenario.gt_tracks))
        assert len(calls) == 10
        scales = set()
        for (batch, hyps, _), kwargs in calls:
            assert_rescoring_is_exact(batch, hyps, **kwargs)
            scales.update(compute(batch, hyps, AffinityProviderParams(),
                                  **kwargs).virtual_scale.tolist())
        # resolved virtual members; no row passes the anchor virtual
        assert {1.0, 0.8, 0.8 * 0.8} <= scales
        assert 0.0 not in scales

    def test_random_tracking_shaped_windows(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            frames = [[cand(f, *rng.uniform(0, 80, 2), w=rng.uniform(15, 30),
                            h=rng.uniform(15, 30), appearance=rng.normal(size=8))
                       for _ in range(int(rng.integers(1, 4)))]
                      for f in range(3)]
            batch = make_batch(frames, virtual=True)
            resolved = {pos: rng.uniform(0, 80, size=(batch.sizes[1], 2))
                        for pos in (0, 2)}
            for table in resolved.values():
                table[-1] = np.nan                  # the virtual anchor slot
            hyps = generate_hypotheses(batch, ConnectionGateConfig())
            assert_rescoring_is_exact(batch, hyps, virtual_scale=0.8,
                                      resolved_virtuals=resolved)

    def test_training_windows(self):
        scenario = generate_scenario(ScenarioSpec(
            frame_count=8, target_count=3, seed=0, noise_sigma=1.0))
        gate = ConnectionGateConfig(base_distance_factor=4.0)
        for window in batch_windows(len(scenario.gt_frames)):
            batch = AssociationBatch(
                frames=tuple(window),
                candidates=tuple(tuple(scenario.gt_frames[f]) for f in window))
            hyps = generate_hypotheses(batch, gate)
            assert len(hyps) > 3
            assert_rescoring_is_exact(batch, hyps)


class TestBackpropAffinity:
    def test_zero_gradient_in_zero_gradient_out(self):
        frames = [[cand(f, 100.0, 100.0)] for f in range(3)]
        batch = make_batch(frames)
        bundle = compute_affinity(batch, generate_hypotheses(
            batch, ConnectionGateConfig()), AffinityProviderParams())
        grads = backprop_affinity(bundle, np.zeros_like(bundle.tensor.values))
        assert np.all(grads == 0.0)

    def test_single_hypothesis_closed_form(self):
        # one hypothesis: the parameter gradient is the analytic derivative
        # of that single score
        app = np.array([1.0, 0.0, 0.0, 0.0])
        frames = [[cand(0, 100.0, 100.0, appearance=app)],
                  [cand(1, 104.0, 100.0, appearance=app)],
                  [cand(2, 108.0, 100.0, appearance=app)]]
        batch = make_batch(frames)
        hyps = generate_hypotheses(batch, ConnectionGateConfig())
        params = AffinityProviderParams(position_scale=25.0)
        bundle = compute_affinity(batch, hyps, params)

        d_motion, d_sigma, d_size, d_appearance, d_long = backprop_affinity(
            bundle, np.array([1.0]))

        # hand derivative: same appearance (sim 1 per edge), equal boxes
        # (size sim 1), distance 4 per edge, zero acceleration
        sigma = 25.0
        gauss = math.exp(-16.0 / (2 * sigma * sigma))
        assert d_appearance == pytest.approx(2 * gauss)
        assert d_size == pytest.approx(2.0)
        assert d_motion == pytest.approx(2 * gauss)
        assert d_long == pytest.approx(1.0)
        expected_sigma = ((params.motion_weight + params.appearance_weight)
                          * 2 * gauss * 16.0 / sigma ** 3
                          + params.long_term_weight * 1.0 * 0.0 / sigma ** 2)
        assert d_sigma == pytest.approx(expected_sigma)

    @pytest.mark.parametrize("seed", range(6))
    def test_full_chain_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        frames = [[cand(f, 100.0 + 30 * i + rng.uniform(-5, 5),
                        100.0 + 30 * f + rng.uniform(-5, 5),
                        w=rng.uniform(16, 24), h=rng.uniform(16, 24),
                        appearance=rng.normal(size=8))
                   for i in range(2)] for f in range(3)]
        batch = make_batch(frames)
        hyps = generate_hypotheses(batch, ConnectionGateConfig(
            base_distance_factor=3.0, max_relaxations=0))
        assert len(hyps)
        params = AffinityProviderParams(position_scale=22.0)
        w = rng.normal(size=(4, 4))
        # loss = sum of w times the pairwise tensor, read at the hypotheses
        w_at = w[_pair_flat_indices(hyps, batch.sizes)]

        bundle = compute_affinity(batch, hyps, params)
        grads = backprop_affinity(bundle, w_at)

        def loss(vec):
            p = AffinityProviderParams.from_vector(vec)
            b = compute_affinity(batch, hyps, p)
            return float(w_at @ b.tensor.values)

        numeric = finite_diff_grad(loss, params.as_vector())
        assert np.all(np.abs(grads - numeric) <= 1e-8 + 1e-5 * np.abs(numeric))

    def test_shape_mismatch_rejected(self):
        frames = [[cand(f, 100.0, 100.0)] for f in range(3)]
        batch = make_batch(frames)
        bundle = compute_affinity(batch, generate_hypotheses(
            batch, ConnectionGateConfig()), AffinityProviderParams())
        with pytest.raises(ContractError):
            backprop_affinity(bundle, np.zeros(5))


class TestReshape:
    def test_single_entry(self):
        values = np.array([[[0.6]]])
        pairwise = reshape_to_pairwise(values, np.ones((1, 1, 1), bool))
        assert pairwise.shape == (1, 1)
        assert pairwise[0, 0] == 0.6

    def test_agreement_pattern_all_sizes_two(self):
        values = np.arange(1.0, 9.0).reshape(2, 2, 2)
        pairwise = reshape_to_pairwise(values, np.ones((2, 2, 2), bool))
        assert pairwise.shape == (4, 4)
        # enumerate all 16 entries and check middle-index agreement
        nonzero = 0
        for j1 in range(4):
            for j2 in range(4):
                i0, i1 = divmod(j1, 2)
                i1b, i2 = divmod(j2, 2)
                if i1 == i1b:
                    assert pairwise[j1, j2] == values[i0, i1, i2]
                    nonzero += 1
                else:
                    assert pairwise[j1, j2] == 0.0
        assert nonzero == 8

    def test_hand_flattened_coordinate(self):
        values = np.zeros((2, 2, 2))
        values[1, 0, 1] = 0.7    # c_{212} in 1-based indexing
        pairwise = reshape_to_pairwise(values, values > 0)
        j1 = 1 * 2 + 0               # pair (i0, i1) = (1, 0) of a 2x2 grid
        j2 = 0 * 2 + 1               # pair (i1, i2) = (0, 1)
        assert pairwise[j1, j2] == 0.7
        assert np.count_nonzero(pairwise) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_energy_identity(self, seed):
        # the multilinear objective is preserved across the reshape
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        values = rng.uniform(size=(n, n, n))
        mask = rng.uniform(size=(n, n, n)) > 0.3
        values = values * mask
        pairwise = reshape_to_pairwise(values, mask)
        xs = [rng.uniform(size=n * n), rng.uniform(size=n * n)]
        lhs = pairwise_objective(pairwise, xs)
        rhs = assignment_objective(values, [x.reshape(n, n) for x in xs])
        assert abs(lhs - rhs) <= 1e-12


class TestConfigValidation:
    @pytest.mark.parametrize("name", ["base_distance_factor",
                                      "relaxation_factor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_gate_rejects_non_finite_factors(self, name, value):
        with pytest.raises(ContractError, match=name):
            ConnectionGateConfig(**{name: value})

    @pytest.mark.parametrize("base, factor, count", [
        (1.0, 2.0, 2000), (1e300, 10.0, 10), (1.0, 1.0000001, 10 ** 10)])
    def test_gate_rejects_relaxation_past_the_float_range(
            self, base, factor, count):
        with pytest.raises(ContractError, match="max_relaxations"):
            ConnectionGateConfig(base_distance_factor=base,
                                 relaxation_factor=factor,
                                 max_relaxations=count)

    def test_gate_accepts_the_widest_finite_relaxation(self):
        gate = ConnectionGateConfig(relaxation_factor=2.0,
                                    max_relaxations=1023)
        assert gate.relaxation_factor ** gate.max_relaxations < math.inf

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_provider_rejects_non_finite_position_scale(self, value):
        with pytest.raises(ContractError, match="position_scale"):
            AffinityProviderParams(position_scale=value)

    @pytest.mark.parametrize("name", ["motion_weight", "size_weight",
                                      "appearance_weight", "long_term_weight"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
    def test_provider_rejects_bad_weights(self, name, value):
        with pytest.raises(ContractError, match=name):
            AffinityProviderParams(**{name: value})
        assert getattr(AffinityProviderParams(**{name: 0.0}), name) == 0.0


class TestParamsFile:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = AffinityProviderParams(
            motion_weight=0.1234567890123456789,
            position_scale=np.pi * 10,
            size_weight=1e-9,
            appearance_weight=2.0 / 3.0,
            long_term_weight=1.0)
        path = tmp_path / "params.txt"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded == params
        save_params(loaded, path)
        assert load_params(path) == params

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("motion_weight = 1.0\n")
        with pytest.raises(ContractError):
            load_params(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        save_params(AffinityProviderParams(), path)
        path.write_text(path.read_text() + "bogus = 3\n")
        with pytest.raises(ContractError, match=r"unknown keys \['bogus'\]"):
            load_params(path)

    def test_unreadable_value_names_its_key(self, tmp_path):
        path = tmp_path / "params.txt"
        save_params(AffinityProviderParams(), path)
        path.write_text(path.read_text().replace("motion_weight = 1.0",
                                                 "motion_weight = abc"))
        with pytest.raises(ContractError,
                           match=r"^motion_weight = 'abc' is not a valid float$"):
            load_params(path)
