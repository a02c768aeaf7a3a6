"""Exact area-weighted rasterization of regions, and the inverse.

Both directions are vectorized: :func:`rasterize` scatters each
rectangle's separable coverage profile into a 2-D difference array (a
constant number of ``np.add.at`` updates per rectangle, then one
inclusive 2-D prefix sum), and :func:`raster_to_region` builds the
canonical slab list of :class:`~repro.geometry.Region` directly from the
pixel columns: adjacent identical columns collapse into one slab, and
one whole-array transition scan yields every slab's y-intervals, with no
rectangle sweep.

Coverage is accumulated in *integer* area units (nm² — all layout
coordinates are integers) and divided by the pixel area exactly once at
the end.  That makes the result independent of how the region happens to
be decomposed into rectangles and of window translation by whole pixels:
the raster of a window is bit-identical to the centred slice of the
raster of any larger, pixel-aligned window.  The litho fast path
(:class:`repro.litho.model.SimCache`) relies on exactly this property to
rasterize once per tile and reuse slices across process conditions.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import Rect, Region


def _axis_profile(
    lo: np.ndarray, hi: np.ndarray, grid: int
) -> tuple[np.ndarray, np.ndarray]:
    """Difference-array form of per-pixel covered length along one axis.

    ``lo``/``hi`` are window-relative integer coordinates (already
    clipped to ``[0, n*grid]``).  Returns ``(positions, values)`` of
    shape ``(R, 4)``: scattering ``values`` at ``positions`` into a
    length ``n+1`` array and prefix-summing yields, for every pixel, the
    integer length of ``[lo, hi]`` covering it.  The four-entry form
    ``(+a at c0, g-a at c0+1, b-g at c1-1, -b at c1)`` is exact for
    single-pixel spans too: the inverted middle range cancels the
    double-counted partial weights.
    """
    c0 = lo // grid
    c1 = -(-hi // grid)
    a = (c0 + 1) * grid - lo  # covered length in the first pixel column
    b = hi - (c1 - 1) * grid  # covered length in the last pixel column
    positions = np.stack([c0, c0 + 1, c1 - 1, c1], axis=1)
    values = np.stack([a, grid - a, b - grid, -b], axis=1)
    return positions, values


def rasterize(region: Region, window: Rect, grid: int) -> np.ndarray:
    """Rasterize a region into a float array of per-pixel coverage.

    Pixel (row j, col i) covers ``[x0 + i*grid, x0 + (i+1)*grid] x
    [y0 + j*grid, ...]``; values are exact covered-area fractions in
    [0, 1].  The array shape is (ny, nx), row 0 at the window bottom.
    """
    if grid <= 0:
        raise ValueError("grid must be positive")
    nx = -(-(window.x1 - window.x0) // grid)
    ny = -(-(window.y1 - window.y0) // grid)
    clipped = region & Region(window)
    if clipped.is_empty:
        return np.zeros((ny, nx))
    boxes = np.array(
        [(r.x0, r.y0, r.x1, r.y1) for r in clipped.rects()], dtype=np.int64
    )
    px, vx = _axis_profile(boxes[:, 0] - window.x0, boxes[:, 2] - window.x0, grid)
    py, vy = _axis_profile(boxes[:, 1] - window.y0, boxes[:, 3] - window.y0, grid)
    # separable 2-D scatter: the outer product of the two axis profiles
    diff = np.zeros((ny + 1, nx + 1), dtype=np.int64)
    rows = np.broadcast_to(py[:, :, None], (len(boxes), 4, 4))
    cols = np.broadcast_to(px[:, None, :], (len(boxes), 4, 4))
    vals = vy[:, :, None] * vx[:, None, :]
    np.add.at(diff, (rows.ravel(), cols.ravel()), vals.ravel())
    area = diff.cumsum(axis=0).cumsum(axis=1)[:ny, :nx]
    img = area / float(grid * grid)
    np.clip(img, 0.0, 1.0, out=img)
    return img


def raster_to_region(mask: np.ndarray, window: Rect, grid: int) -> Region:
    """Convert a boolean raster back into a Region (pixel-resolution).

    ``mask`` covers ``window`` the way :func:`rasterize` lays pixels
    out, so a partial last column or row is clipped to ``window.x1`` /
    ``window.y1``.  The canonical slab list is built straight from the
    pixel columns: each column's vertical runs are its y-intervals, and
    a run of identical adjacent columns is one slab.
    """
    ny, nx = mask.shape
    if ny == 0 or nx == 0 or not mask.any():
        return Region()
    # a column that equals its left neighbour continues that slab
    starts = np.flatnonzero(
        np.concatenate(([True], (mask[:, 1:] != mask[:, :-1]).any(axis=0)))
    )
    stops = np.append(starts[1:], nx)
    filled = mask[:, starts].any(axis=0)
    starts, stops = starts[filled], stops[filled]
    # one transition scan over the slabs' first columns: np.nonzero is
    # row-major in (slab, row), so run starts and ends pair up in order
    transitions = np.diff(
        mask[:, starts].T.astype(np.int8), axis=1, prepend=0, append=0
    )
    ss, jj = np.nonzero(transitions)
    rising = transitions[ss, jj] > 0
    y0 = window.y0 + jj[rising] * grid
    y1 = np.minimum(window.y0 + jj[~rising] * grid, window.y1)
    x0 = window.x0 + starts * grid
    x1 = np.minimum(window.x0 + stops * grid, window.x1)
    ys = list(zip(y0.tolist(), y1.tolist()))
    ends = np.cumsum(np.bincount(ss[rising], minlength=len(starts))).tolist()
    slabs = []
    lo = 0
    for xa, xb, hi in zip(x0.tolist(), x1.tolist(), ends):
        slabs.append((xa, xb, ys[lo:hi]))
        lo = hi
    return Region._from_slabs(slabs)
