"""MOT format round-trips, CLEAR MOT metrics, and scenario generation."""

import math

import numpy as np
import pytest

from mdatrack.errors import ContractError, ParseError
from mdatrack.evalio import (
    MotRecord,
    ScenarioSpec,
    clear_mot,
    format_mot_record,
    generate_scenario,
    load_mot,
    load_mot_records,
    parse_mot_line,
    records_to_candidates,
    records_to_tracks,
    save_mot_records,
    tracks_to_records,
)


class TestMotFormat:
    def test_detection_line(self):
        rec = parse_mot_line("1,-1,10,20,30,40,0.9,-1,-1,-1", 1)
        assert rec.frame == 1
        assert rec.id == -1
        assert rec.box == (10.0, 20.0, 30.0, 40.0)
        assert rec.conf == 0.9

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert load_mot_records(path) == []
        assert load_mot(path) == []

    def test_records_become_candidates_beside_their_ids(self):
        records = [MotRecord(2, 7, 10.0, 20.0, 30.0, 40.0, 0.9),
                   MotRecord(2, 3, 50.0, 20.0, 30.0, 40.0, 0.8),
                   MotRecord(4, 5, 10.0, 60.0, 20.0, 20.0, 1.0)]
        frames, ids = records_to_candidates(records, descriptor_length=6)
        assert ids == [[], [7, 3], [], [5]]
        assert [[c.box for c in f] for f in frames] == [
            [], [records[0].box, records[1].box], [], [records[2].box]]
        first = frames[1][0]
        assert (first.frame_index, first.center, first.score) == (
            1, (25.0, 40.0), 0.9)
        assert np.array_equal(first.appearance, np.zeros(6))
        assert records_to_candidates([]) == ([], [])

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,-1,10,20,30,40,0.9\n1,-1,oops,20,30,40,0.9\n")
        with pytest.raises(ParseError, match="line 2"):
            load_mot_records(path)

    def test_nonpositive_box_rejected(self):
        with pytest.raises(ParseError, match="line 7"):
            parse_mot_line("1,-1,10,20,0,40,0.9", 7)

    def test_infinite_frame_rejected(self):
        with pytest.raises(ParseError, match="^line 3: field 1 is not finite"):
            parse_mot_line("inf,-1,10,20,30,40,0.9", 3)

    @pytest.mark.parametrize("line, field", [
        ("2.7,3,1,1,10,10,0.9", r"field 1 \(frame\) is not an integer: '2.7'$"),
        ("2,3.9,1,1,10,10,0.9", r"field 2 \(id\) is not an integer: '3.9'$"),
        ("2.7,3.9,1,1,10,10,0.9", r"field 1 \(frame\)"),
    ], ids=["frame", "id", "both"])
    def test_non_integral_frame_or_id_rejected(self, line, field):
        with pytest.raises(ParseError, match=f"^line 4: {field}"):
            parse_mot_line(line, 4)

    def test_integral_frame_and_id_in_float_notation_accepted(self):
        rec = parse_mot_line("1e3,7.0,1,1,10,10,0.9", 1)
        assert (rec.frame, rec.id) == (1000, 7)
        assert type(rec.frame) is int and type(rec.id) is int

    def test_nan_box_coordinate_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("1,-1,10,20,30,40,0.9\n2,-1,nan,20,30,40,0.9\n")
        with pytest.raises(ParseError, match="^line 2: field 3 is not finite"):
            load_mot_records(path)

    def test_round_trip_thousand_records(self, tmp_path):
        rng = np.random.default_rng(1)
        records = [
            MotRecord(
                frame=int(rng.integers(1, 300)),
                id=int(rng.integers(-1, 40)),
                left=round(float(rng.uniform(-5, 600)), 6),
                top=round(float(rng.uniform(-5, 400)), 6),
                width=round(float(rng.uniform(1, 100)), 6),
                height=round(float(rng.uniform(1, 100)), 6),
                conf=round(float(rng.uniform(0, 1)), 6),
            )
            for _ in range(1000)
        ]
        path = tmp_path / "records.txt"
        save_mot_records(records, path)
        once = load_mot_records(path)
        save_mot_records(once, path)
        twice = load_mot_records(path)
        # field-wise bit-exact after a full load/save/load cycle
        assert once == twice
        assert sorted(once, key=lambda r: (r.frame, r.id, r.left)) == \
            sorted(records, key=lambda r: (r.frame, r.id, r.left))

    def test_frames_sorted_on_ingest(self, tmp_path):
        path = tmp_path / "unsorted.txt"
        path.write_text("3,-1,1,1,5,5,1\n1,-1,2,2,5,5,1\n")
        records = load_mot_records(path)
        assert [r.frame for r in records] == [1, 3]

    def test_tracks_record_round_trip(self):
        tracks = {1: {0: (1.0, 2.0, 3.0, 4.0), 1: (2.0, 3.0, 3.0, 4.0)},
                  4: {0: (9.0, 9.0, 2.0, 2.0)}}
        assert records_to_tracks(tracks_to_records(tracks)) == tracks

    def test_repeated_frame_and_id_rejected(self):
        records = [MotRecord(1, 1, 0.0, 0.0, 5.0, 5.0, 1.0),
                   MotRecord(1, 1, 9.0, 9.0, 5.0, 5.0, 1.0)]
        with pytest.raises(ContractError,
                           match=r"^frame 1: id 1 appears twice$"):
            records_to_tracks(records)

    def test_negative_id_rejected(self):
        records = [MotRecord(2, -1, 0.0, 0.0, 5.0, 5.0, 1.0)]
        with pytest.raises(ContractError,
                           match=r"^frame 2: id -1 is negative"):
            records_to_tracks(records)

    def test_id_zero_accepted(self):
        records = [MotRecord(1, 0, 0.0, 0.0, 5.0, 5.0, 1.0),
                   MotRecord(2, 0, 1.0, 0.0, 5.0, 5.0, 1.0)]
        assert records_to_tracks(records) == {
            0: {0: (0.0, 0.0, 5.0, 5.0), 1: (1.0, 0.0, 5.0, 5.0)}}

    def test_stream_round_trip(self):
        import io
        tracks = {2: {0: (1.5, 2.5, 3.0, 4.0), 3: (2.0, 3.0, 3.0, 4.0)}}
        sink = io.StringIO()
        save_mot_records(tracks_to_records(tracks), sink)
        sink.seek(0)
        assert records_to_tracks(load_mot_records(sink)) == tracks

    def test_format_uses_full_precision(self):
        rec = MotRecord(1, 2, 0.1 + 0.2, 1.0, 2.0, 3.0, 1.0 / 3.0)
        line = format_mot_record(rec)
        back = parse_mot_line(line, 1)
        assert back == rec


class TestClearMot:
    def test_perfect_tracking(self):
        spec = ScenarioSpec(frame_count=10, target_count=3, seed=2)
        scenario = generate_scenario(spec)
        report = clear_mot(scenario.gt_tracks, scenario.gt_tracks)
        assert report.mota == 1.0
        assert report.motp == pytest.approx(1.0)
        assert report.false_positives == 0
        assert report.false_negatives == 0
        assert report.id_switches == 0
        assert report.mostly_tracked == 100.0

    def test_identical_tracks_score_motp_of_at_most_one(self):
        # rounding in the intersection puts the IoU of about half of these
        # boxes with themselves above 1 and of the rest below; identical
        # boxes score exactly 1
        scenario = generate_scenario(ScenarioSpec(frame_count=10,
                                                  target_count=3, seed=0))
        report = clear_mot(scenario.gt_tracks, scenario.gt_tracks)
        assert type(report.motp) is float and type(report.mota) is float
        assert report.motp == 1.0
        assert report.mota == 1.0

    def test_empty_hypothesis(self):
        gt = {0: {f: (0.0, 0.0, 10.0, 10.0) for f in range(5)}}
        report = clear_mot(gt, {})
        assert report.false_negatives == 5
        assert report.mota == pytest.approx(0.0)

    def test_no_ground_truth_scores_one_only_without_errors(self):
        # 1 - errors / GT: no error scores 1, any error its limit, -inf
        assert clear_mot({}, {}).mota == 1.0
        report = clear_mot({}, {1: {0: (0.0, 0.0, 10.0, 10.0)}})
        assert report.false_positives == 1
        assert report.mota == -math.inf

    def test_single_id_flip_counts_one_switch(self):
        gt = {0: {f: (0.0, 0.0, 10.0, 10.0) for f in range(10)}}
        hyp = {
            1: {f: (0.0, 0.0, 10.0, 10.0) for f in range(5)},
            2: {f: (0.0, 0.0, 10.0, 10.0) for f in range(5, 10)},
        }
        report = clear_mot(gt, hyp)
        assert report.id_switches == 1
        assert report.false_negatives == 0
        assert report.false_positives == 0
        assert report.mostly_tracked == 100.0

    def test_continuity_preferred_over_larger_iou(self):
        # a second hypothesis with slightly better IoU must not steal the
        # match from the established one
        gt = {0: {0: (0.0, 0.0, 10.0, 10.0), 1: (0.0, 0.0, 10.0, 10.0)}}
        hyp = {
            1: {0: (1.0, 0.0, 10.0, 10.0), 1: (1.0, 0.0, 10.0, 10.0)},
            2: {1: (0.5, 0.0, 10.0, 10.0)},
        }
        report = clear_mot(gt, hyp)
        assert report.id_switches == 0
        assert report.false_positives == 1  # the would-be thief goes unmatched

    def test_monotone_degradation_when_deleting_boxes(self):
        spec = ScenarioSpec(frame_count=8, target_count=3, seed=5)
        scenario = generate_scenario(spec)
        full = clear_mot(scenario.gt_tracks, scenario.gt_tracks)
        pruned_tracks = {i: dict(t) for i, t in scenario.gt_tracks.items()}
        del pruned_tracks[0][3]
        del pruned_tracks[1][5]
        pruned = clear_mot(scenario.gt_tracks, pruned_tracks)
        assert pruned.false_negatives >= full.false_negatives
        assert pruned.mota <= full.mota

    def test_mostly_lost(self):
        gt = {0: {f: (0.0, 0.0, 10.0, 10.0) for f in range(10)}}
        hyp = {1: {0: (0.0, 0.0, 10.0, 10.0)}}   # 10% coverage
        report = clear_mot(gt, hyp)
        assert report.mostly_lost == 100.0
        assert report.mostly_tracked == 0.0


class TestGenerateScenario:
    def test_noiseless_detections_equal_ground_truth(self):
        spec = ScenarioSpec(frame_count=6, target_count=3, seed=4)
        scenario = generate_scenario(spec)
        for frame, dets in enumerate(scenario.detection_frames):
            gt_boxes = sorted(scenario.gt_tracks[t][frame]
                              for t in scenario.gt_tracks)
            det_boxes = sorted(c.box for c in dets)
            assert det_boxes == gt_boxes

    def test_full_miss_probability_drops_everything(self):
        spec = ScenarioSpec(frame_count=5, target_count=4, miss_probability=1.0,
                            seed=4)
        scenario = generate_scenario(spec)
        assert all(not dets for dets in scenario.detection_frames)

    def test_seed_determinism(self):
        spec = ScenarioSpec(frame_count=7, target_count=3, noise_sigma=1.0,
                            miss_probability=0.2, false_positive_rate=0.5,
                            seed=99)
        a = generate_scenario(spec)
        b = generate_scenario(spec)
        assert a.gt_tracks == b.gt_tracks
        for fa, fb in zip(a.detection_frames, b.detection_frames):
            assert len(fa) == len(fb)
            for ca, cb in zip(fa, fb):
                assert ca.box == cb.box
                np.testing.assert_array_equal(ca.appearance, cb.appearance)

    def test_targets_stay_inside_the_frame(self):
        spec = ScenarioSpec(frame_count=200, target_count=5, seed=8,
                            velocity_range=(3.0, 6.0))
        scenario = generate_scenario(spec)
        for traj in scenario.gt_tracks.values():
            for box in traj.values():
                assert box[0] >= -1e-9
                assert box[1] >= -1e-9
                assert box[0] + box[2] <= spec.frame_width + 1e-9
                assert box[1] + box[3] <= spec.frame_height + 1e-9

    def test_self_evaluation_perfect_for_every_seed(self):
        for seed in range(5):
            spec = ScenarioSpec(frame_count=10, target_count=4, seed=seed)
            scenario = generate_scenario(spec)
            report = clear_mot(scenario.gt_tracks, scenario.gt_tracks)
            assert report.mota == 1.0
            assert report.id_switches == 0

    def test_invalid_probability_rejected(self):
        with pytest.raises(ContractError):
            ScenarioSpec(miss_probability=1.5)

    @pytest.mark.parametrize("field, value", [
        ("noise_sigma", math.nan), ("noise_sigma", -1.0),
        ("noise_sigma", math.inf),
        ("false_positive_rate", math.inf), ("false_positive_rate", math.nan),
        ("descriptor_noise", math.nan), ("descriptor_noise", -0.1),
        ("velocity_range", (math.nan, 4.0)), ("velocity_range", (1.0, math.inf)),
        ("velocity_range", (5.0, 4.0)),
        ("box_size_range", (0.0, 40.0)), ("box_size_range", (24.0, math.nan)),
        ("box_size_range", (40.0, 24.0)),
        ("frame_width", math.inf), ("frame_width", math.nan),
        ("frame_height", 0.0),
        ("frame_count", 0), ("frame_count", -3), ("target_count", -1),
        ("descriptor_length", 0), ("frame_count", math.nan), ("seed", -1),
    ])
    def test_invalid_numbers_rejected(self, field, value):
        with pytest.raises(ContractError, match=field):
            ScenarioSpec(**{field: value})

    def test_boundary_numbers_accepted(self):
        spec = ScenarioSpec(noise_sigma=0.0, false_positive_rate=0.0,
                            descriptor_noise=0.0, velocity_range=(-2.0, -2.0),
                            box_size_range=(30.0, 30.0))
        assert spec.velocity_range == (-2.0, -2.0)

    def test_smallest_counts_accepted(self):
        # one frame, one descriptor entry, and a clutter-only scene
        scenario = generate_scenario(ScenarioSpec(
            frame_count=1, target_count=0, descriptor_length=1,
            false_positive_rate=2.0, seed=3))
        assert scenario.gt_frames == [[]]
        assert scenario.gt_tracks == {}
        assert all(len(c.appearance) == 1
                   for c in scenario.detection_frames[0])
