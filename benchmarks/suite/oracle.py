"""Brute-force answers every benchmark operation is checked against.

Independent of the systems under test: a vectorized MBR filter over all
``n x m`` pairs, then the scalar reference predicate
:func:`repro.geometry.predicates.geometries_intersect` on every pair
whose boxes overlap.  Nothing here is timed.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.predicates import geometries_intersect
from repro.geometry.primitives import Polygon

#: right-side rows compared against all left boxes at once.
_CHUNK = 256


def mbr_array(geoms) -> np.ndarray:
    """``(n, 4)`` xmin, ymin, xmax, ymax of each geometry."""
    out = np.empty((len(geoms), 4))
    for i, g in enumerate(geoms):
        m = g.mbr
        out[i] = (m.xmin, m.ymin, m.xmax, m.ymax)
    return out


def join_pairs(left, right, left_mbrs=None, right_mbrs=None) -> frozenset:
    """``{(i, j)}`` of intersecting ``left[i]``, ``right[j]`` (positional ids)."""
    lm = mbr_array(left) if left_mbrs is None else left_mbrs
    rm = mbr_array(right) if right_mbrs is None else right_mbrs
    pairs = set()
    for start in range(0, len(right), _CHUNK):
        r = rm[start:start + _CHUNK]
        overlap = (
            (lm[:, None, 0] <= r[None, :, 2]) & (lm[:, None, 2] >= r[None, :, 0])
            & (lm[:, None, 1] <= r[None, :, 3]) & (lm[:, None, 3] >= r[None, :, 1])
        )
        ii, jj = np.nonzero(overlap)
        for i, j in zip(ii.tolist(), (jj + start).tolist()):
            if geometries_intersect(left[i], right[j]):
                pairs.add((i, j))
    return frozenset(pairs)


def range_ids(geoms, mbrs, box) -> tuple:
    """Positional ids of geometries intersecting *box*, in row order."""
    xmin, ymin, xmax, ymax = box
    rows = np.nonzero(
        (mbrs[:, 0] <= xmax) & (mbrs[:, 2] >= xmin)
        & (mbrs[:, 1] <= ymax) & (mbrs[:, 3] >= ymin)
    )[0]
    poly = Polygon([(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)])
    return tuple(int(i) for i in rows if geometries_intersect(geoms[int(i)], poly))
