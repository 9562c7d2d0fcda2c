"""Online tracking loop: virtual resolution, target management, sequences."""

import inspect

import numpy as np
import pytest

from mdatrack import affinity, pipeline, solver, training
from mdatrack.affinity import (
    AffinityProviderParams,
    ConnectionGateConfig,
    compute_affinity,
    generate_hypotheses,
)
from mdatrack.evalio import ScenarioSpec, clear_mot, generate_scenario
from mdatrack.errors import ContractError
from mdatrack.pipeline import (
    ACTIVE,
    COASTING,
    EXITED,
    ConfidenceQuality,
    GroundTruthQuality,
    PipelineConfig,
    TrackRecord,
    TrackState,
    resolve_virtuals,
    run_sequence,
    track_batch,
)
from mdatrack.solver import (
    discretize,
    l1_normalize_forward,
    power_iteration_forward,
)
from mdatrack.types import AssociationBatch, Candidate, batch_windows, box_iou

import box_reference


def cand(frame, cx, cy, w=24.0, h=24.0, appearance=None, score=1.0):
    if appearance is None:
        appearance = np.ones(8)
    return Candidate(frame_index=frame, center=(cx, cy),
                     box=(cx - w / 2, cy - h / 2, w, h), score=score,
                     appearance=np.asarray(appearance, dtype=float))


def tracking_batch(per_frame, frames=None):
    frames = frames or tuple(range(len(per_frame)))
    return AssociationBatch(frames=tuple(frames),
                            candidates=tuple(tuple(f) for f in per_frame),
                            virtual=True)


class TestResolveVirtuals:
    def test_zero_velocity_resolves_at_anchor_position(self):
        batch = tracking_batch([[cand(0, 100.0, 100.0)],
                                [cand(1, 100.0, 100.0)],
                                []])
        resolved = resolve_virtuals(batch, {})
        assert resolved[2][0].tolist() == [100.0, 100.0]
        assert resolved[0][0].tolist() == [100.0, 100.0]

    def test_constant_velocity_resolves_at_extrapolation(self):
        batch = tracking_batch([[cand(0, 90.0, 100.0)],
                                [cand(1, 100.0, 100.0)],
                                []])
        resolved = resolve_virtuals(batch, {0: (10.0, 0.0)})
        assert resolved[2][0].tolist() == [110.0, 100.0]
        assert resolved[0][0].tolist() == [90.0, 100.0]

    def test_real_candidate_at_extrapolation_beats_scaled_virtual(self):
        # a real candidate sitting exactly at the prediction with a matching
        # descriptor must out-score the alpha-scaled virtual
        app = np.ones(8)
        per_frame = [[cand(0, 90.0, 100.0, appearance=app)],
                     [cand(1, 100.0, 100.0, appearance=app)],
                     [cand(2, 110.0, 100.0, appearance=app)]]
        batch = tracking_batch(per_frame)
        params = AffinityProviderParams()
        config = PipelineConfig()
        resolved = resolve_virtuals(batch, {0: (10.0, 0.0)})
        hyps = generate_hypotheses(batch, ConnectionGateConfig())
        bundle = compute_affinity(batch, hyps, params,
                                  virtual_scale=config.alpha,
                                  resolved_virtuals=resolved)
        value = dict(zip(map(tuple, hyps.tolist()), bundle.tensor.values))
        real = value[0, 0, 0]                # (real, anchor, real)
        virt = value[0, 0, 1]                # (real, anchor, virtual)
        assert real > virt
        state = power_iteration_forward(bundle.tensor, config.power_iterations)
        norm = l1_normalize_forward(state.log_pairs(), config.norm_pairs,
                                    virtual=True)
        binary = discretize(norm.matrices(), virtual=True)
        assert binary[1][0, 0] == 1.0        # anchor prefers the real candidate

    def test_virtual_anchor_gets_no_resolution(self):
        batch = tracking_batch([[cand(0, 50.0, 50.0)],
                                [cand(1, 50.0, 50.0)],
                                []])
        resolved = resolve_virtuals(batch, {})
        for centers in resolved.values():   # rows: real anchor, virtual slot
            assert np.isfinite(centers[0]).all()
            assert np.isnan(centers[1]).all()

    def test_window_without_virtual_slots_has_none_to_resolve(self):
        frames = [[cand(f, 50.0, 50.0)] for f in range(3)]
        batch = AssociationBatch(frames=(0, 1, 2),
                                 candidates=tuple(map(tuple, frames)))
        assert resolve_virtuals(batch, {}) == {}

    def test_virtual_window_of_other_order_rejected(self):
        with pytest.raises(ContractError, match=r"^a window with virtual "
                           r"slots must have K = 2, got 3$"):
            tracking_batch([[cand(f, 50.0, 50.0)] for f in range(4)])


class TestPipelineConfig:
    @pytest.mark.parametrize("field, value", [
        ("power_iterations", 0), ("power_iterations", -3),
        ("norm_pairs", -1),
        ("frame_width", 0.0), ("frame_width", -640.0),
        ("frame_height", 0.0), ("frame_height", -1.0),
        ("frame_width", float("nan")),
    ])
    def test_rejects_unusable_solver_and_frame_settings(self, field, value):
        with pytest.raises(ContractError):
            PipelineConfig(**{field: value})

    def test_accepts_the_smallest_usable_settings(self):
        config = PipelineConfig(power_iterations=1, norm_pairs=0,
                                frame_width=1.0, frame_height=1.0)
        assert config.frame_box == (0.0, 0.0, 1.0, 1.0)


def scalar_quality(gt_tracks, candidate, threshold=0.5):
    """The box-quality rule restated with the scalar reference IoU."""
    boxes = [traj[candidate.frame_index] for traj in gt_tracks.values()
             if candidate.frame_index in traj]
    best = max((box_reference.kernel_box_iou(candidate.box, b)
                for b in boxes), default=0.0)
    return 1.0 if best >= threshold else 0.0


def box_cand(frame, box, score=1.0):
    l, t, w, h = box
    return Candidate(frame_index=frame, center=(l + w / 2, t + h / 2),
                     box=tuple(box), score=score)


def evaluate_one(quality, candidate):
    """Score one candidate through the per-frame call."""
    values = quality.evaluate([candidate])
    assert values.shape == (1,)
    return values[0]


class TestGroundTruthQuality:
    @staticmethod
    def random_frames(rng, gt):
        """Per frame 0..4 (frame 4 has no ground truth), 80 candidates:
        perturbed and exact copies of ground-truth boxes, and random boxes."""
        frames = {}
        for frame in range(5):
            owners = [t[frame] for t in gt.values() if frame in t]
            boxes = []
            for _ in range(80):
                pick = rng.uniform()
                if owners and pick < 0.4:
                    box = np.array(owners[int(rng.integers(len(owners)))])
                    box[:2] += rng.normal(0, 4, 2)
                    box[2:] *= rng.uniform(0.7, 1.4, 2)
                elif owners and pick < 0.5:
                    box = np.array(owners[int(rng.integers(len(owners)))])
                else:
                    box = np.concatenate([rng.uniform(0, 60, 2),
                                          rng.uniform(5, 30, 2)])
                boxes.append(box_cand(frame, box.tolist()))
            frames[frame] = boxes
        return frames

    @pytest.mark.parametrize("threshold", [0.5, 0.3, 0.7, 0.0, 1.0])
    def test_random_boxes_follow_the_scalar_rule(self, threshold):
        rng = np.random.default_rng(17)
        gt = {tid: {f: tuple(rng.uniform(0, 60, 2)) + tuple(rng.uniform(5, 30, 2))
                    for f in range(4) if rng.uniform() < 0.8}
              for tid in range(8)}
        quality = GroundTruthQuality(gt, iou_threshold=threshold)
        seen = set()
        for frame, cands in self.random_frames(rng, gt).items():
            values = quality.evaluate(cands)
            assert values.shape == (len(cands),)
            assert values.tolist() == [scalar_quality(gt, c, threshold)
                                       for c in cands]
            seen.update(values.tolist())
        # a threshold of 0 passes every box, even on the frame without
        # ground truth; one of 1 passes only some exact copies
        assert seen == ({1.0} if threshold == 0.0 else {0.0, 1.0})

    def test_disjoint_and_touching_boxes_have_zero_iou(self):
        gt = {1: {0: (0.0, 0.0, 2.0, 2.0)}, 2: {0: (10.0, 10.0, 2.0, 2.0)}}
        quality = GroundTruthQuality(gt, iou_threshold=1e-12)
        cands = [box_cand(0, box) for box in
                 [(2.0, 0.0, 2.0, 2.0), (0.0, 2.0, 2.0, 2.0),
                  (12.0, 12.0, 1.0, 1.0), (5.0, 5.0, 1.0, 1.0)]]
        assert quality.evaluate(cands).tolist() == [0.0] * 4
        assert [scalar_quality(gt, c, 1e-12) for c in cands] == [0.0] * 4

    def test_identical_boxes(self):
        gt = {1: {3: (4.0, 5.0, 20.0, 30.0)}}
        for threshold in (0.5, 1.0):
            quality = GroundTruthQuality(gt, iou_threshold=threshold)
            c = box_cand(3, (4.0, 5.0, 20.0, 30.0))
            assert evaluate_one(quality, c) == scalar_quality(gt, c, threshold) == 1.0

    def test_iou_of_exactly_one_half_passes(self):
        gt = {1: {0: (1.0, 0.0, 3.0, 1.0)}}
        c = box_cand(0, (0.0, 0.0, 3.0, 1.0))
        assert box_iou(c.box, gt[1][0]) == 0.5
        assert evaluate_one(GroundTruthQuality(gt), c) == 1.0
        strict = GroundTruthQuality(gt, iou_threshold=np.nextafter(0.5, 1.0))
        assert evaluate_one(strict, c) == 0.0

    def test_frame_without_ground_truth_scores_zero(self):
        gt = {1: {0: (0.0, 0.0, 10.0, 10.0)}}
        c = box_cand(7, (0.0, 0.0, 10.0, 10.0))
        assert evaluate_one(GroundTruthQuality(gt), c) == 0.0
        # the scalar rule's default of 0.0 passes a threshold of 0
        assert evaluate_one(GroundTruthQuality(gt, iou_threshold=0.0), c) == 1.0

    def test_no_candidates_give_an_empty_array(self):
        gt = {1: {0: (0.0, 0.0, 10.0, 10.0)}}
        assert GroundTruthQuality(gt).evaluate([]).shape == (0,)

    def test_candidates_of_two_frames_are_rejected(self):
        gt = {1: {0: (0.0, 0.0, 10.0, 10.0), 1: (0.0, 0.0, 10.0, 10.0)}}
        cands = [box_cand(0, (0.0, 0.0, 10.0, 10.0)),
                 box_cand(1, (0.0, 0.0, 10.0, 10.0))]
        with pytest.raises(ContractError):
            GroundTruthQuality(gt).evaluate(cands)


class TestConfidenceQuality:
    def test_scores_are_clipped_to_the_unit_interval(self):
        cands = [box_cand(0, (0.0, 0.0, 10.0, 10.0), score=s)
                 for s in (-0.5, 0.0, 0.25, 1.0, 3.0)]
        values = ConfidenceQuality().evaluate(cands)
        assert values.tolist() == [0.0, 0.0, 0.25, 1.0, 1.0]
        assert ConfidenceQuality().evaluate([]).shape == (0,)


def run_clean_scenario(frame_count=12, target_count=3, seed=2, **spec_kw):
    spec = ScenarioSpec(frame_count=frame_count, target_count=target_count,
                        seed=seed, **spec_kw)
    scenario = generate_scenario(spec)
    tracks = run_sequence(scenario.detection_frames, ConnectionGateConfig(),
                          AffinityProviderParams(), PipelineConfig(),
                          GroundTruthQuality(scenario.gt_tracks))
    return scenario, tracks


def gap_scenario():
    """Two targets; target 0 is missed on frame 6, so its track coasts."""
    spec = ScenarioSpec(frame_count=12, target_count=2, seed=5)
    scenario = generate_scenario(spec)
    detections = [list(f) for f in scenario.detection_frames]
    victim = scenario.gt_tracks[0][6]
    detections[6] = [c for c in detections[6]
                     if abs(c.box[0] - victim[0]) > 1e-9]
    assert len(detections[6]) == 1
    return scenario, detections


def track_windows(scenario, detections):
    """Drive track_batch window by window; yields (window, state) after
    each."""
    state = TrackState()
    quality = GroundTruthQuality(scenario.gt_tracks)
    for window in batch_windows(len(detections)):
        track_batch(detections, window, ConnectionGateConfig(),
                    AffinityProviderParams(), PipelineConfig(), quality, state)
        yield window, state


class TestTrackBatch:
    def test_clean_scene_zero_switches(self):
        scenario, tracks = run_clean_scenario()
        report = clear_mot(scenario.gt_tracks, {t.id: t.boxes for t in tracks})
        assert report.id_switches == 0
        assert report.mota == 1.0

    def test_gap_is_bridged_by_coasting(self):
        scenario, detections = gap_scenario()
        tracks = run_sequence(detections, ConnectionGateConfig(),
                              AffinityProviderParams(), PipelineConfig(),
                              GroundTruthQuality(scenario.gt_tracks))
        report = clear_mot(scenario.gt_tracks, {t.id: t.boxes for t in tracks})
        assert report.id_switches == 0
        assert len(tracks) == 2
        # the gap frame is filled by the prediction
        assert all(6 in t.boxes for t in tracks)

    def test_detections_are_read_only(self):
        # a continued track's prediction is carried by the state, never
        # appended to the caller's frames
        scenario, detections = gap_scenario()
        before = [list(frame) for frame in detections]
        carried = 0
        for _, state in track_windows(scenario, detections):
            carried += sum(map(len, state.carried.values()))
        assert carried > 0
        for frame, kept in zip(detections, before):
            assert len(frame) == len(kept)
            assert all(a is b for a, b in zip(frame, kept))

    def test_live_state_stays_bounded(self):
        # clean 10-target scene over 300 frames: the state keeps the heads
        # of live tracks and the predictions the next window can read
        scenario = generate_scenario(ScenarioSpec(frame_count=300,
                                                  target_count=10, seed=0))
        sizes = []
        for window, state in track_windows(scenario,
                                           scenario.detection_frames):
            assert len(state.carried) <= 2
            assert all(frame > window[0] for frame in state.carried)
            live = sum(1 for t in state.targets if t.status != EXITED)
            assert len(state.heads) <= live
            sizes.append(len(state.heads)
                         + sum(map(len, state.carried.values())))
        assert len(sizes) == 298
        assert sizes[-1] <= sizes[28]

    def test_two_simultaneous_misses_both_coast(self):
        # multiple anchors may resolve to virtual partners in the same frame
        spec = ScenarioSpec(frame_count=10, target_count=2, seed=6)
        scenario = generate_scenario(spec)
        detections = [list(f) for f in scenario.detection_frames]
        detections[5] = []
        tracks = run_sequence(detections, ConnectionGateConfig(),
                              AffinityProviderParams(), PipelineConfig(),
                              GroundTruthQuality(scenario.gt_tracks))
        report = clear_mot(scenario.gt_tracks, {t.id: t.boxes for t in tracks})
        assert len(tracks) == 2
        assert report.id_switches == 0
        assert all(5 in t.boxes for t in tracks)

    def test_walkout_exits_within_a_window(self):
        frames = []
        gt = {0: {}, 1: {}}
        for f in range(10):
            cx = 560.0 + 30.0 * f
            box = (cx - 15, 225, 30, 30)
            gt[0][f] = box
            cands = []
            if cx - 15 < 640:
                cands.append(cand(f, cx, 240.0, w=30, h=30,
                                  appearance=np.ones(8)))
            stat = (100, 100, 30, 30)
            gt[1][f] = stat
            cands.append(cand(f, 115.0, 115.0, w=30, h=30,
                              appearance=-np.ones(8)))
            frames.append(cands)
        tracks = run_sequence(frames, ConnectionGateConfig(),
                              AffinityProviderParams(), PipelineConfig(),
                              GroundTruthQuality(gt))
        walker = next(t for t in tracks if 0 in t.boxes and t.boxes[0][0] > 500)
        assert walker.status == "exited"
        # exits within one window of the prediction leaving the frame
        assert max(walker.boxes) <= 5

    def test_low_quality_anchor_starts_no_track(self):
        spec = ScenarioSpec(frame_count=8, target_count=2, seed=3)
        scenario = generate_scenario(spec)
        detections = [list(f) for f in scenario.detection_frames]
        # plant a persistent false positive far from both targets
        for f in range(8):
            detections[f].append(cand(f, 600.0, 30.0, score=0.3,
                                      appearance=np.full(24, 0.5)))
        tracks = run_sequence(detections, ConnectionGateConfig(),
                              AffinityProviderParams(), PipelineConfig(),
                              GroundTruthQuality(scenario.gt_tracks))
        assert len(tracks) == 2   # the false positive never enters

    @pytest.mark.parametrize("weights, skipped, spans", [
        ({}, 1, [[2, 3, 4]]),
        ({"motion_weight": 0.0, "size_weight": 0.0, "appearance_weight": 0.0,
          "long_term_weight": 0.0}, 3, []),
    ])
    def test_skipped_windows_are_counted(self, weights, skipped, spans):
        # frame 1 is empty: the first window has no real anchor, so no
        # hypothesis; with every weight at 0 no window has affinity mass
        detections = [[cand(0, 100.0, 100.0)], [], [cand(2, 104.0, 100.0)],
                      [cand(3, 106.0, 100.0)], [cand(4, 108.0, 100.0)]]
        state = TrackState()
        for window in batch_windows(len(detections)):
            track_batch(detections, window, ConnectionGateConfig(),
                        AffinityProviderParams(**weights), PipelineConfig(),
                        ConfidenceQuality(), state)
        assert state.skipped_windows == skipped
        assert [sorted(t.boxes) for t in state.targets] == spans

    def test_skipped_window_ends_the_live_tracks(self):
        # two targets moving +10 px per frame under a position scale of
        # 0.001 px: only the first window, whose virtuals sit on its
        # anchors, has affinity mass.  The skipped window [1, 2, 3] ends
        # both tracks on frame 2, and the next window reads none of their
        # heads as its own anchors
        frames = [[cand(f, 100.0 + 10.0 * f, 100.0),
                   cand(f, 300.0 + 10.0 * f, 200.0, appearance=-np.ones(8))]
                  for f in range(5)]
        state = TrackState()
        for window in batch_windows(len(frames)):
            track_batch(frames, window, ConnectionGateConfig(),
                        AffinityProviderParams(0.0, 0.001, 0.0, 1.0, 0.0),
                        PipelineConfig(), ConfidenceQuality(), state)
        assert state.skipped_windows == 1
        assert [(t.id, t.status, sorted(t.boxes)) for t in state.targets[:2]] \
            == [(1, EXITED, [0, 1, 2]), (2, EXITED, [0, 1, 2])]
        # every live track ends on the last frame, on a head of the state
        live = [t for t in state.targets if t.status != EXITED]
        assert live and all(4 in t.boxes for t in live)
        assert sorted(t.id for t in state.heads.values()) == [
            t.id for t in live]

    def test_candidates_with_equal_fields_are_distinct_heads(self):
        # two targets on one box: each detection heads its own track
        frames = [[cand(f, 100.0 + 10.0 * f, 100.0) for _ in range(2)]
                  for f in range(5)]
        state = TrackState()
        for window in batch_windows(len(frames)):
            track_batch(frames, window, ConnectionGateConfig(),
                        AffinityProviderParams(), PipelineConfig(),
                        ConfidenceQuality(), state)
            assert len(state.heads) == 2
        assert [sorted(t.boxes) for t in state.targets] == [
            [0, 1, 2, 3, 4]] * 2
        assert sorted(map(id, state.heads)) == sorted(map(id, frames[4]))

    def test_each_window_scores_its_similarities_once(self, monkeypatch):
        # the affinity provider builds one descriptor similarity table per
        # frame pair, and scores the anchors' self-similarities, which its
        # virtual members take, once
        scenario = generate_scenario(ScenarioSpec(
            frame_count=8, target_count=10, seed=0, noise_sigma=1.0,
            miss_probability=0.1, false_positive_rate=0.2))
        calls = {"_clipped_square": 0, "descriptor_similarity": 0}

        def counted(name):
            function = getattr(affinity, name)

            def counting(*args):
                calls[name] += 1
                return function(*args)
            return counting

        for name in calls:
            monkeypatch.setattr(affinity, name, counted(name))
        state = TrackState()
        for window in batch_windows(len(scenario.detection_frames)):
            track_batch(scenario.detection_frames, window,
                        ConnectionGateConfig(), AffinityProviderParams(),
                        PipelineConfig(),
                        GroundTruthQuality(scenario.gt_tracks), state)
        assert state.skipped_windows == 0
        assert calls == {"_clipped_square": 2 * 6, "descriptor_similarity": 6}

    def test_coast_budget_exhaustion_exits(self):
        spec = ScenarioSpec(frame_count=20, target_count=2, seed=9)
        scenario = generate_scenario(spec)
        detections = [list(f) for f in scenario.detection_frames]
        victim = scenario.gt_tracks[0]
        for f in range(8, 20):
            detections[f] = [c for c in detections[f]
                             if abs(c.box[0] - victim[f][0]) > 1e-6]
        config = PipelineConfig(max_coast_frames=3)
        tracks = run_sequence(detections, ConnectionGateConfig(),
                              AffinityProviderParams(), config,
                              GroundTruthQuality(scenario.gt_tracks))
        lost = [t for t in tracks if t.status == "exited"]
        assert len(lost) == 1
        assert max(lost[0].boxes) <= 8 + 3 + 1


class TestReacquisition:
    """A track whose prediction is carried onto a window's anchor frame
    takes the free detection there that overlaps the prediction best, at
    IoU >= t_dif."""

    @staticmethod
    def window_on_frame_three(config):
        # one target moving +10 px per frame and missed on frame 3: the
        # first two windows coast its track onto x = 130 there.  A detection
        # 2 px past the prediction is then put on frame 3, as a window leaves
        # its state when it sends the track to its virtual beside a detection
        frames = [[cand(f, 100.0 + 10.0 * f, 100.0)] for f in range(5)]
        frames[3] = []
        args = (ConnectionGateConfig(), AffinityProviderParams(), config,
                ConfidenceQuality())
        state = TrackState()
        for window in ([0, 1, 2], [1, 2, 3]):
            track_batch(frames, window, *args, state)
        (track,) = state.targets
        (prediction,) = state.carried[3]
        assert state.heads == {prediction: track}
        assert track.status == COASTING and prediction.center == (130.0, 100.0)
        frames[3] = [cand(3, 132.0, 100.0)]
        batches = []

        def recording(batch, gate):
            batches.append(batch.candidates)
            return generate_hypotheses(batch, gate)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "generate_hypotheses", recording)
            track_batch(frames, [2, 3, 4], *args, state)
        return frames, state, track, prediction, batches[0]

    def test_free_detection_on_the_prediction_continues_the_track(self):
        frames, state, track, prediction, window = self.window_on_frame_three(
            PipelineConfig())
        assert state.targets == [track]         # none born on the detection
        assert state.heads == {frames[4][0]: track}
        assert track.boxes[3] == frames[3][0].box
        assert track.boxes[4] == frames[4][0].box
        assert (track.status, track.frames_coasting) == (ACTIVE, 0)
        assert window == tuple(map(tuple, frames[2:]))
        assert state.carried[3] == []

    @pytest.mark.parametrize("above", [False, True])
    def test_threshold_is_t_dif(self, above):
        # the detection overlaps the prediction at IoU 22/26
        iou = float(box_iou((118.0, 88.0, 24.0, 24.0),
                            (120.0, 88.0, 24.0, 24.0)))
        assert iou == 22.0 / 26.0
        t_dif = float(np.nextafter(iou, 1.0)) if above else iou
        frames, state, track, prediction, window = self.window_on_frame_three(
            PipelineConfig(t_dif=t_dif))
        if above:                               # the window is unchanged
            assert window == (tuple(frames[2]), (*frames[3], prediction),
                              tuple(frames[4]))
            assert track.boxes[3] == prediction.box
        else:
            assert window == tuple(map(tuple, frames[2:]))
            assert track.boxes[3] == frames[3][0].box

    def test_owned_detection_is_never_taken(self):
        owner = TrackRecord(id=1)
        coasting = TrackRecord(id=2, status=COASTING, frames_coasting=1)
        detection, prediction = cand(2, 120.0, 100.0), cand(2, 121.0, 100.0)
        state = TrackState(targets=[owner, coasting],
                           heads={detection: owner, prediction: coasting},
                           carried={2: [prediction]})
        pipeline._reacquire([detection], 2, 0.5, state)
        assert state.heads == {detection: owner, prediction: coasting}
        assert state.carried == {2: [prediction]}
        assert (coasting.status, coasting.boxes) == (COASTING, {})

    def test_detection_off_the_prediction_is_not_taken_at_zero_t_dif(self):
        coasting = TrackRecord(id=1, status=COASTING, frames_coasting=1)
        prediction = cand(2, 121.0, 100.0)
        state = TrackState(targets=[coasting], heads={prediction: coasting},
                           carried={2: [prediction]})
        pipeline._reacquire([cand(2, 300.0, 100.0)], 2, 0.0, state)
        assert state.heads == {prediction: coasting}
        assert state.carried == {2: [prediction]}

    def test_each_detection_is_taken_once_and_later_slots_move_down(self):
        # both predictions overlap the one detection: the first carried
        # takes it, and the second keeps its prediction, now the frame's
        # first carried slot, right after the detection
        first = TrackRecord(id=1, status=COASTING, frames_coasting=2)
        second = TrackRecord(id=2, status=COASTING, frames_coasting=1)
        near, nearer = cand(2, 123.0, 100.0), cand(2, 121.0, 100.0)
        detection = cand(2, 120.0, 100.0, appearance=np.full(8, 2.0),
                         score=0.7)
        state = TrackState(targets=[first, second],
                           heads={near: first, nearer: second},
                           carried={2: [near, nearer]})
        pipeline._reacquire([detection], 2, 0.5, state)
        assert state.heads == {detection: first, nearer: second}
        assert state.carried == {2: [nearer]}
        assert first.boxes == {2: detection.box}
        assert (first.status, first.frames_coasting, first.score) == (
            ACTIVE, 0, 0.7)
        assert first.descriptor.tolist() == [2.0] * 8
        assert (second.status, second.boxes) == (COASTING, {})


class TestRunSequence:
    def test_three_frames_single_window(self):
        spec = ScenarioSpec(frame_count=3, target_count=2, seed=1)
        scenario = generate_scenario(spec)
        tracks = run_sequence(scenario.detection_frames, ConnectionGateConfig(),
                              AffinityProviderParams(), PipelineConfig(),
                              GroundTruthQuality(scenario.gt_tracks))
        assert len(tracks) == 2
        for t in tracks:
            assert sorted(t.boxes) == [0, 1, 2]

    def test_ten_frames_two_targets_full_boxes(self):
        scenario, tracks = run_clean_scenario(frame_count=10, target_count=2,
                                              seed=4)
        assert len(tracks) == 2
        for t in tracks:
            assert len(t.boxes) == 10

    def test_empty_frames_give_zero_trajectories(self):
        tracks = run_sequence([[] for _ in range(6)], ConnectionGateConfig(),
                              AffinityProviderParams(), PipelineConfig(),
                              ConfidenceQuality())
        assert tracks == []

    def test_short_sequence_warns(self):
        with pytest.warns(UserWarning):
            tracks = run_sequence([[cand(0, 10, 10)]], ConnectionGateConfig(),
                                  AffinityProviderParams(), PipelineConfig(),
                                  ConfidenceQuality())
        assert tracks == []

    def test_per_frame_exclusivity(self):
        spec = ScenarioSpec(frame_count=15, target_count=4, seed=12,
                            noise_sigma=1.0, miss_probability=0.1,
                            false_positive_rate=0.2)
        scenario = generate_scenario(spec)
        tracks = run_sequence(scenario.detection_frames, ConnectionGateConfig(),
                              AffinityProviderParams(), PipelineConfig(),
                              GroundTruthQuality(scenario.gt_tracks))
        for frame in range(15):
            boxes = [t.boxes[frame] for t in tracks if frame in t.boxes]
            detection_boxes = [c.box for c in scenario.detection_frames[frame]]
            used = [b for b in boxes if b in detection_boxes]
            assert len(used) == len(set(used))

    def test_track_ids_strictly_increasing_by_creation(self):
        scenario, tracks = run_clean_scenario(frame_count=10, target_count=5,
                                              seed=13)
        ids = [t.id for t in tracks]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_later_windows_normalize_and_discretize_one_pair(self, monkeypatch):
        # only the first window reads the (f0, f1) pair, for frame 0's
        # backfill; every later window hands each layer the (f1, f2) pair
        scenario = generate_scenario(ScenarioSpec(
            frame_count=12, target_count=5, seed=3, noise_sigma=1.0,
            miss_probability=0.1, false_positive_rate=0.3))
        counts = {"l1_normalize_forward": [], "discretize": []}
        for name, calls in counts.items():
            def counting(matrices, *args, _fn=getattr(pipeline, name),
                         _calls=calls, **kwargs):
                _calls.append(len(matrices))
                return _fn(matrices, *args, **kwargs)
            monkeypatch.setattr(pipeline, name, counting)
        run_sequence(scenario.detection_frames, ConnectionGateConfig(),
                     AffinityProviderParams(), PipelineConfig(),
                     GroundTruthQuality(scenario.gt_tracks))
        for calls in counts.values():
            assert calls == [2] + [1] * 9

    def test_only_tracking_solves_with_virtual_slots(self, monkeypatch):
        # tracking windows end every frame in a virtual slot, so both
        # layers get the window's flag; training windows have none
        scenario = generate_scenario(ScenarioSpec(
            frame_count=6, target_count=3, seed=3, noise_sigma=1.0,
            miss_probability=0.1, false_positive_rate=0.3))
        flags = []

        def recording(module, name):
            fn = getattr(module, name)
            signature = inspect.signature(getattr(solver, name))

            def record(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                flags.append((name, bound.arguments["virtual"]))
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, record)

        recording(pipeline, "l1_normalize_forward")
        recording(pipeline, "discretize")
        run_sequence(scenario.detection_frames, ConnectionGateConfig(),
                     AffinityProviderParams(), PipelineConfig(),
                     GroundTruthQuality(scenario.gt_tracks))
        assert sorted(set(flags)) == [("discretize", True),
                                      ("l1_normalize_forward", True)]

        flags.clear()
        recording(training, "l1_normalize_forward")
        training.train_provider(scenario.gt_frames, scenario.gt_frame_ids,
                                ConnectionGateConfig(),
                                AffinityProviderParams(), epochs=1,
                                learning_rate=0.05)
        assert flags and set(flags) == {("l1_normalize_forward", False)}

    def test_track_batch_is_called_once_per_window(self, monkeypatch):
        # perfbench times and checks each window by wrapping the module
        # global track_batch; when that hook breaks, its counters only read
        # as unavailable
        scenario = generate_scenario(ScenarioSpec(
            frame_count=12, target_count=3, seed=21, noise_sigma=1.0,
            miss_probability=0.15, false_positive_rate=0.3))

        def digest():
            tracks = run_sequence(scenario.detection_frames,
                                  ConnectionGateConfig(),
                                  AffinityProviderParams(), PipelineConfig(),
                                  GroundTruthQuality(scenario.gt_tracks))
            return [(t.id, t.status, t.boxes) for t in tracks]

        expected = digest()
        calls = []

        def recording(*args, **kwargs):
            result = unwrapped(*args, **kwargs)
            calls.append((args, result))
            return result

        unwrapped = pipeline.track_batch
        monkeypatch.setattr(pipeline, "track_batch", recording)
        assert digest() == expected
        assert [args[1] for args, _ in calls] == batch_windows(12)
        for _, result in calls:
            assert type(result.skipped_windows) is int
            assert isinstance(result.targets, list)

    def test_bit_reproducible_runs(self):
        spec = ScenarioSpec(frame_count=12, target_count=3, seed=21,
                            noise_sigma=1.0, miss_probability=0.15,
                            false_positive_rate=0.3)
        scenario = generate_scenario(spec)
        results = []
        for _ in range(2):
            tracks = run_sequence([list(f) for f in scenario.detection_frames],
                                  ConnectionGateConfig(),
                                  AffinityProviderParams(), PipelineConfig(),
                                  GroundTruthQuality(scenario.gt_tracks))
            results.append({t.id: t.boxes for t in tracks})
        assert results[0] == results[1]


class TestAlphaMonotonicity:
    def test_decreasing_alpha_never_creates_virtual_assignments(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            per_frame = [[cand(f, 100.0 + 60 * i + rng.uniform(-3, 3),
                               100.0 + 40 * f + rng.uniform(-3, 3),
                               appearance=rng.normal(size=8))
                          for i in range(3)] for f in range(3)]
            batch = tracking_batch(per_frame)
            params = AffinityProviderParams()
            gate = ConnectionGateConfig()
            hyps = generate_hypotheses(batch, gate)
            resolved = resolve_virtuals(batch, {})

            def anchor_assignments(alpha):
                bundle = compute_affinity(batch, hyps, params,
                                          virtual_scale=alpha,
                                          resolved_virtuals=resolved)
                state = power_iteration_forward(bundle.tensor, 10)
                norm = l1_normalize_forward(state.log_pairs(), 10,
                                            virtual=True)
                binary = discretize(norm.matrices(), virtual=True)
                virtual_col = batch.sizes[2] - 1
                return [bool(binary[1][row, virtual_col])
                        for row in range(3)]

            high = anchor_assignments(0.8)
            low = anchor_assignments(0.4)
            for went_virtual_low, went_virtual_high in zip(low, high):
                # shrinking alpha can only move assignments away from virtual
                assert not (went_virtual_low and not went_virtual_high)
