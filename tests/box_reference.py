"""Scalar box overlap, one pair of boxes at a time: the reference the
array kernel in ``mdatrack.types`` (``box_iou``, ``box_visible_fraction``)
is tested against.  Boxes are (left, top, width, height); the kernel
equals these bit for bit, except for the two IoU rules that
:func:`kernel_box_iou` adds.
"""


def box_iou(a: tuple[float, float, float, float],
            b: tuple[float, float, float, float]) -> float:
    """Intersection over union of two (l, t, w, h) boxes."""
    ax0, ay0, aw, ah = a
    bx0, by0, bw, bh = b
    ix0 = max(ax0, bx0)
    iy0 = max(ay0, by0)
    ix1 = min(ax0 + aw, bx0 + bw)
    iy1 = min(ay0 + ah, by0 + bh)
    iw = max(0.0, ix1 - ix0)
    ih = max(0.0, iy1 - iy0)
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def kernel_box_iou(a: tuple[float, float, float, float],
                   b: tuple[float, float, float, float]) -> float:
    """:func:`box_iou` as the kernel returns it: capped at 1.0, and exactly
    1.0 for identical boxes of positive area."""
    if tuple(a) == tuple(b) and a[2] * a[3] > 0.0:
        return 1.0
    return min(box_iou(a, b), 1.0)


def box_visible_fraction(box: tuple[float, float, float, float],
                         frame_box: tuple[float, float, float, float]) -> float:
    """Fraction of ``box`` that lies inside ``frame_box``."""
    x0, y0, w, h = box
    area = w * h
    if area <= 0.0:
        return 0.0
    fx0, fy0, fw, fh = frame_box
    ix0 = max(x0, fx0)
    iy0 = max(y0, fy0)
    ix1 = min(x0 + w, fx0 + fw)
    iy1 = min(y0 + h, fy0 + fh)
    iw = max(0.0, ix1 - ix0)
    ih = max(0.0, iy1 - iy0)
    return (iw * ih) / area
