"""Index algebra, window scheduling, and domain-type invariants."""

import numpy as np
import pytest

from mdatrack.solver import _pair_flat_indices
from mdatrack.errors import ContractError, InputValidationError, RangeError
from mdatrack.types import (
    AssociationBatch,
    Candidate,
    batch_windows,
    box_iou,
    box_visible_fraction,
)

import box_reference
from box_reference import kernel_box_iou


def make_candidate(frame=0, center=(10.0, 10.0), box=(0.0, 0.0, 20.0, 20.0),
                   **kw):
    return Candidate(frame_index=frame, center=center, box=box, score=1.0, **kw)


class TestFlattenPair:
    """The row-major flat index of a candidate pair, i_prev * I_next + i_next
    (0-based), a hypothesis' coordinate in the pairwise tensor."""

    @staticmethod
    def flat(i_prev, i_next, size_next):
        tuples = np.array([[i_prev, i_next]])
        (j,) = _pair_flat_indices(tuples, (i_prev + 1, size_next))
        return int(j[0])

    def test_flattening_formula(self):
        assert self.flat(1, 0, 3) == 3

    def test_identity_corner(self):
        for size in (1, 3, 7):
            assert self.flat(0, 0, size) == 0

    def test_last_cell(self):
        assert self.flat(2, 2, 3) == 8

    def test_round_trip_4x3(self):
        # exhaustive loop oracle over the 4x3 grid: divmod inverts the index
        grid = np.array([(i, j) for i in range(4) for j in range(3)])
        (flat,) = _pair_flat_indices(grid, (4, 3))
        assert flat.tolist() == list(range(12))
        assert ([divmod(j, 3) for j in flat.tolist()]
                == [tuple(r) for r in grid.tolist()])

    def test_bijection_all_small_grids(self):
        # the index is a bijection onto 0..I_prev*I_next-1 on every grid with
        # sides <= 8, and each column of a K=2 tuple array gets its own pair
        for size_prev in range(1, 9):
            for size_next in range(1, 9):
                grid = np.array([(i, j) for i in range(size_prev)
                                 for j in range(size_next)])
                (flat,) = _pair_flat_indices(grid, (size_prev, size_next))
                assert (sorted(flat.tolist())
                        == list(range(size_prev * size_next)))
        tuples = np.array([[1, 2, 0], [0, 1, 3]])
        first, second = _pair_flat_indices(tuples, (2, 3, 4))
        assert first.tolist() == [1 * 3 + 2, 0 * 3 + 1]
        assert second.tolist() == [2 * 4 + 0, 1 * 4 + 3]


def random_boxes(rng, n):
    return np.concatenate([rng.uniform(0, 60, (n, 2)),
                           rng.uniform(0.5, 30, (n, 2))], axis=1).tolist()


BASE = (10.0, 20.0, 30.0, 40.0)
#: (a, b) box pairs of every kind the kernel must get right
SHAPED_PAIRS = [
    (BASE, (50.0, 70.0, 5.0, 5.0)),             # disjoint
    (BASE, (40.0, 20.0, 10.0, 40.0)),           # touching along an edge
    (BASE, (40.0, 60.0, 3.0, 3.0)),             # touching at a corner
    (BASE, (15.0, 25.0, 5.0, 5.0)),             # nested
    ((15.0, 25.0, 5.0, 5.0), BASE),
    (BASE, (25.0, 30.0, 30.0, 40.0)),           # partial overlap
    (BASE, BASE),                               # identical
    ((10.0, 20.0, 0.0, 40.0), BASE),            # zero width
    (BASE, (20.0, 30.0, 5.0, 0.0)),             # zero height
    ((10.0, 20.0, 0.0, 0.0), (10.0, 20.0, 0.0, 0.0)),   # empty union
]
FRAME = (0.0, 0.0, 50.0, 50.0)


def box_pairs():
    rng = np.random.default_rng(3)
    boxes = random_boxes(rng, 120)
    return (SHAPED_PAIRS + list(zip(boxes[::2], boxes[1::2]))
            + [(b, b) for b in boxes])


class TestBoxOverlap:
    """The array kernel against the scalar reference in
    ``tests/box_reference.py``: bit for bit, with the IoU capped at 1 and
    exactly 1 for identical boxes of positive area."""

    def test_one_box_at_a_time(self):
        for a, b in box_pairs():
            iou = box_iou(a, b)
            assert type(iou) is float
            assert iou == kernel_box_iou(a, b), (a, b)
            for frame in (b, FRAME):
                fraction = box_visible_fraction(a, frame)
                assert type(fraction) is float
                assert fraction == box_reference.box_visible_fraction(a, frame)

    def test_broadcast_box_arrays(self):
        boxes = [box for pair in box_pairs()[:60] for box in pair]
        array = np.array(boxes)
        iou = box_iou(array[:, None], array)
        assert iou.shape == (len(boxes), len(boxes))
        assert iou.tolist() == [[kernel_box_iou(a, b) for b in boxes]
                                for a in boxes]
        assert box_iou(array, array[::-1]).tolist() == [
            kernel_box_iou(a, b) for a, b in zip(boxes, boxes[::-1])]
        assert box_visible_fraction(array, FRAME).tolist() == [
            box_reference.box_visible_fraction(b, FRAME) for b in boxes]
        fraction = box_visible_fraction(array[:, None], array[None, :5])
        assert fraction.tolist() == [
            [box_reference.box_visible_fraction(a, b) for b in boxes[:5]]
            for a in boxes]

    def test_identical_boxes_have_iou_one(self):
        boxes = random_boxes(np.random.default_rng(5), 2000)
        reference = [box_reference.box_iou(b, b) for b in boxes]
        # rounding puts the reference above 1 for 738 of them and below 1
        # for 781
        assert sum(iou > 1.0 for iou in reference) == 738
        assert sum(iou < 1.0 for iou in reference) == 781
        assert [box_iou(b, b) for b in boxes] == [1.0] * len(boxes)
        array = np.array(boxes)
        assert (box_iou(array, array) == 1.0).all()
        assert (box_iou(array[:, None], array).diagonal() == 1.0).all()


class TestBatchWindows:
    def test_overlap_convention(self):
        assert batch_windows(5) == [[0, 1, 2], [1, 2, 3], [2, 3, 4]]

    def test_single_window(self):
        assert batch_windows(3) == [[0, 1, 2]]

    def test_window_count(self):
        windows = batch_windows(10)
        assert len(windows) == 8
        assert [w[0] for w in windows] == list(range(8))

    def test_short_sequence_warns_empty(self):
        with pytest.warns(UserWarning):
            assert batch_windows(2) == []

    def test_windows_tile_the_sequence(self):
        for frame_count in range(3, 12):
            windows = batch_windows(frame_count)
            covered = set()
            for w in windows:
                covered.update(w)
            assert covered == set(range(frame_count))

    def test_every_interior_frame_anchors_exactly_one_window(self):
        for frame_count in range(3, 12):
            windows = batch_windows(frame_count)
            anchors = [w[1] for w in windows]
            assert anchors == list(range(1, frame_count - 1))
            # anchor is the window start plus one
            assert all(w[1] == w[0] + 1 for w in windows)


class TestCandidate:
    def test_real_candidate_needs_positive_box(self):
        with pytest.raises(InputValidationError):
            make_candidate(box=(0.0, 0.0, 0.0, 20.0))
        with pytest.raises(InputValidationError):
            make_candidate(box=(0.0, 0.0, 20.0, -1.0))

    @pytest.mark.parametrize("field, value", [
        ("center", (float("nan"), 10.0)),
        ("box", (0.0, 0.0, float("nan"), 20.0)),
        ("center", (10.0, float("inf"))),
    ])
    def test_non_finite_center_or_box_is_rejected(self, field, value):
        with pytest.raises(InputValidationError,
                           match=rf"^candidate {field} must be finite"):
            make_candidate(**{field: value})


class TestAssociationBatch:
    def test_anchor_is_middle_frame(self):
        cands = tuple((make_candidate(frame=f),) for f in range(3))
        batch = AssociationBatch(frames=(4, 5, 6), candidates=cands)
        assert batch.anchor_position == 1

    def test_frames_must_increase(self):
        cands = tuple((make_candidate(frame=f),) for f in range(3))
        with pytest.raises(ContractError):
            AssociationBatch(frames=(4, 4, 6), candidates=cands)

    def test_frame_count_must_match_order(self):
        # the order K is the frame count minus one, and must be at least 2
        cands = tuple((make_candidate(frame=f),) for f in range(2))
        with pytest.raises(RangeError):
            AssociationBatch(frames=(0, 1), candidates=cands)
        cands = tuple((make_candidate(frame=f),) for f in range(4))
        assert AssociationBatch(frames=(0, 1, 2, 3), candidates=cands).K == 3

    def test_candidate_lists_must_match_frames(self):
        cands = tuple((make_candidate(frame=f),) for f in range(2))
        with pytest.raises(ContractError, match="3 frames, 2 lists"):
            AssociationBatch(frames=(0, 1, 2), candidates=cands)

    def test_arrays_follow_candidate_order(self):
        cands = ((make_candidate(center=(1.0, 2.0), box=(0.0, 0.0, 6.0, 8.0)),),
                 (make_candidate(frame=1), make_candidate(frame=1)),
                 (make_candidate(frame=2, appearance=np.full(24, 2.0)),))
        batch = AssociationBatch(frames=(0, 1, 2), candidates=cands)
        arrays = batch.arrays
        assert batch.sizes == (1, 2, 1)
        assert [len(fa.is_virtual) for fa in arrays] == [1, 2, 1]
        assert not any(fa.is_virtual.any() for fa in arrays)
        assert arrays[0].centers.tolist() == [[1.0, 2.0]]
        assert arrays[0].diagonals.tolist() == [10.0]
        assert arrays[2].norms.tolist() == [pytest.approx(np.sqrt(96.0))]

    def test_virtual_window_ends_every_frame_in_one_virtual_row(self):
        cands = ((make_candidate(center=(1.0, 2.0), box=(0.0, 0.0, 6.0, 8.0)),),
                 (),
                 (make_candidate(frame=2), make_candidate(frame=2)))
        batch = AssociationBatch(frames=(0, 1, 2), candidates=cands,
                                 virtual=True)
        arrays = batch.arrays
        assert batch.sizes == (2, 1, 3)
        assert [fa.is_virtual.tolist() for fa in arrays] == [
            [False, True], [True], [False, False, True]]
        assert arrays[0].centers[0].tolist() == [1.0, 2.0]
        assert arrays[0].diagonals.tolist() == [10.0, np.hypot(1.0, 1.0)]
        for fa in arrays:
            assert np.isnan(fa.centers[-1]).all()
            assert fa.boxes[-1].tolist() == [0.0, 0.0, 1.0, 1.0]
            assert fa.descriptors[-1].tolist() == [0.0] * 24
            assert fa.norms[-1] == 0.0

    def test_descriptor_lengths_must_agree(self):
        cands = ((make_candidate(appearance=np.ones(8)),),
                 (make_candidate(frame=1, appearance=np.ones(6)),),
                 (make_candidate(frame=2, appearance=np.ones(8)),))
        batch = AssociationBatch(frames=(0, 1, 2), candidates=cands)
        with pytest.raises(InputValidationError):
            batch.arrays
