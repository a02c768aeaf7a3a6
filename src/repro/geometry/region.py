"""Canonical rectangle-set regions with boolean algebra and morphology.

A :class:`Region` represents an arbitrary rectilinear area as a canonical
set of disjoint rectangles.  Canonical form is the *vertical slab
decomposition with maximal horizontal merge*: the plane is cut at every
distinct x coordinate where the region's boundary changes, each slab holds
a canonical list of y-intervals, and adjacent slabs with identical
y-interval lists are merged back together.  Two regions describing the same
point set therefore always hold the same rectangle list, which makes
equality, hashing, and property-based testing trivial.

Boolean operations (union, intersection, difference, xor) are computed by
a joint slab sweep using the 1-D interval algebra in
:mod:`repro.geometry.intervals`.  Intersection and difference sweep only
the *window* of slabs that can matter (found by bisection on the sorted
slab list), so ``big.covers(small)``, ``big.clipped(window)`` and
``big.overlaps(small)`` cost what the operands overlap, not the size of
``big``.

Morphological sizing (grow/shrink with a rectangular structuring element)
is separable: a box is the Minkowski sum of a horizontal and a vertical
segment, so sizing is an x-pass over the slab list (a sliding window of
x-neighbouring slabs, unioned to dilate and intersected to erode)
followed by a y-pass within each slab.  Sizing powers the DRC
width/space/enclosure checks and the litho pinch check.
"""

from __future__ import annotations

import hashlib
import heapq
from bisect import bisect_left, bisect_right
import struct
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.geometry.intervals import (
    Interval,
    intersect_intervals,
    merge_intervals,
    subtract_intervals,
    xor_intervals,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect

# A slab is (x0, x1, [y-intervals]); slabs are sorted by x0 and disjoint.
Slab = tuple[int, int, list[Interval]]


def _slabs_from_rects(rects: Sequence[Rect]) -> list[Slab]:
    """Decompose arbitrary (possibly overlapping) rects into canonical slabs."""
    boxes = [r for r in rects if not r.is_degenerate]
    if not boxes:
        return []
    xs = sorted({r.x0 for r in boxes} | {r.x1 for r in boxes})
    boxes.sort(key=lambda r: r.x0)
    slabs: list[Slab] = []
    active: list[tuple[int, int, int]] = []  # heap of (x1, y0, y1)
    i = 0
    for xa, xb in zip(xs, xs[1:]):
        while i < len(boxes) and boxes[i].x0 <= xa:
            r = boxes[i]
            heapq.heappush(active, (r.x1, r.y0, r.y1))
            i += 1
        while active and active[0][0] <= xa:
            heapq.heappop(active)
        if active:
            ys = merge_intervals([(y0, y1) for (_, y0, y1) in active])
            if ys:
                slabs.append((xa, xb, ys))
    return _merge_slabs(slabs)


def _merge_slabs(slabs: list[Slab]) -> list[Slab]:
    """Merge x-adjacent slabs whose y-interval lists are identical."""
    out: list[Slab] = []
    for xa, xb, ys in slabs:
        if not ys:
            continue
        if out and out[-1][1] == xa and out[-1][2] == ys:
            out[-1] = (out[-1][0], xb, ys)
        else:
            out.append((xa, xb, list(ys)))
    return out


def _sweep(a: list[Slab], b: list[Slab], op) -> list[Slab]:
    """Joint slab sweep of two canonical slab lists under interval op."""
    xs = sorted({x for xa, xb, _ in a for x in (xa, xb)} | {x for xa, xb, _ in b for x in (xa, xb)})
    if not xs:
        return []
    out: list[Slab] = []
    ia = ib = 0
    for xa, xb in zip(xs, xs[1:]):
        while ia < len(a) and a[ia][1] <= xa:
            ia += 1
        while ib < len(b) and b[ib][1] <= xa:
            ib += 1
        ya: list[Interval] = []
        yb: list[Interval] = []
        if ia < len(a) and a[ia][0] <= xa:
            ya = a[ia][2]
        if ib < len(b) and b[ib][0] <= xa:
            yb = b[ib][2]
        ys = op(ya, yb)
        if ys:
            out.append((xa, xb, ys))
    return _merge_slabs(out)


_X0 = itemgetter(0)
_X1 = itemgetter(1)


def _window(slabs: list[Slab], x0: int, x1: int) -> list[Slab]:
    """The contiguous run of ``slabs`` whose x-range meets ``[x0, x1)``.

    Slabs are sorted and disjoint, so both their ``x0`` and ``x1`` keys
    are sorted and two bisections bound the run.
    """
    lo = bisect_right(slabs, x0, key=_X1)
    return slabs[lo : bisect_left(slabs, x1, lo, key=_X0)]


def _runs(slabs: list[Slab]) -> Iterator[list[Slab]]:
    """Split a slab list into maximal runs of x-contiguous slabs."""
    start = 0
    for i in range(1, len(slabs)):
        if slabs[i][0] != slabs[i - 1][1]:
            yield slabs[start:i]
            start = i
    if slabs:
        yield slabs[start:]


def _dilate_x(slabs: list[Slab], d: int) -> list[Slab]:
    """Minkowski sum with the horizontal segment ``[-d, d]`` (``d > 0``).

    Every slab widens to ``[x0 - d, x1 + d)``.  Widened starts and ends
    stay sorted, so the slabs covering an elementary x-interval are one
    contiguous window ``[lo, hi)`` that two pointers track; its y-lists
    are unioned (reused as-is when the window holds a single slab).
    """
    xs = sorted({x0 - d for x0, _, _ in slabs} | {x1 + d for _, x1, _ in slabs})
    out: list[Slab] = []
    n = len(slabs)
    lo = hi = 0
    for xa, xb in zip(xs, xs[1:]):
        while hi < n and slabs[hi][0] - d <= xa:
            hi += 1
        while lo < hi and slabs[lo][1] + d <= xa:
            lo += 1
        if hi - lo == 1:
            out.append((xa, xb, slabs[lo][2]))
        elif hi > lo:
            out.append((xa, xb, merge_intervals([iv for s in slabs[lo:hi] for iv in s[2]])))
    return _merge_slabs(out)


def _erode_x(slabs: list[Slab], d: int) -> list[Slab]:
    """Erosion by the horizontal segment ``[-d, d]`` (``d > 0``).

    A point survives only when its whole segment lies in one run of
    x-contiguous slabs, so each run is eroded to ``[run_x0 + d,
    run_x1 - d)``.  There a point at ``x`` keeps the intersection of the
    y-lists of the slabs whose ``[x0 - d, x1 + d)`` holds ``x`` — a
    window that only slides right.  A two-stack sliding aggregate keeps
    that intersection at amortised O(1) ``intersect_intervals`` calls
    per output slab: ``back`` holds the newest slabs with their running
    intersection, ``front`` the oldest with suffix intersections, and
    ``front`` is refilled from ``back`` when it runs dry.
    """
    out: list[Slab] = []
    for run in _runs(slabs):
        rx0, rx1 = run[0][0] + d, run[-1][1] - d
        if rx0 >= rx1:
            continue
        cuts = {x0 - d for x0, _, _ in run} | {x1 + d for _, x1, _ in run}
        xs = sorted({rx0, rx1} | {x for x in cuts if rx0 < x < rx1})
        front: list[list[Interval]] = []
        back: list[list[Interval]] = []
        back_all: list[Interval] = []
        lo = hi = 0
        for xa, xb in zip(xs, xs[1:]):
            while hi < len(run) and run[hi][0] - d <= xa:
                ys = run[hi][2]
                back_all = intersect_intervals(back_all, ys) if back else ys
                back.append(ys)
                hi += 1
            while run[lo][1] + d <= xa:
                if not front:
                    acc = back[-1]
                    front = [acc]
                    for ys in reversed(back[:-1]):
                        acc = intersect_intervals(ys, acc)
                        front.append(acc)
                    back = []
                front.pop()
                lo += 1
            if not front:
                ys = back_all
            elif not back:
                ys = front[-1]
            else:
                ys = intersect_intervals(front[-1], back_all)
            if ys:
                out.append((xa, xb, ys))
    return _merge_slabs(out)


def _size_y(slabs: list[Slab], dy: int) -> list[Slab]:
    """Grow (``dy > 0``) or shrink (``dy < 0``) every slab's y-intervals.

    Growing widens each interval by ``dy`` and coalesces neighbours that
    now touch; shrinking narrows each by ``-dy`` and drops it once its
    length is at most ``-2 * dy``.
    """
    out: list[Slab] = []
    if dy > 0:
        for xa, xb, ys in slabs:
            grown: list[Interval] = []
            for a, b in ys:
                if grown and a - dy <= grown[-1][1]:
                    grown[-1] = (grown[-1][0], b + dy)
                else:
                    grown.append((a - dy, b + dy))
            out.append((xa, xb, grown))
    else:
        e = -dy
        for xa, xb, ys in slabs:
            out.append((xa, xb, [(a + e, b - e) for a, b in ys if b - a > 2 * e]))
    return _merge_slabs(out)


class Region:
    """An immutable rectilinear area in canonical rectangle-set form."""

    __slots__ = ("_slabs", "_hash")

    def __init__(self, rects: Iterable[Rect] | Rect | None = None):
        if rects is None:
            rects = []
        elif isinstance(rects, Rect):
            rects = [rects]
        self._slabs: list[Slab] = _slabs_from_rects(list(rects))
        self._hash: int | None = None

    # -- internal -------------------------------------------------------
    @classmethod
    def _from_slabs(cls, slabs: list[Slab]) -> "Region":
        region = cls.__new__(cls)
        region._slabs = slabs
        region._hash = None
        return region

    @classmethod
    def from_canonical_rects(cls, rects: Iterable[Rect]) -> "Region":
        """Rebuild a region from its own canonical rect iteration.

        ``rects`` must be exactly what :meth:`rects` produced (the
        order ships rects slab by slab, y-sorted within each slab), as
        preserved by serialization paths like
        :class:`repro.layout.store.StoreRects`.  Rebuilding is then pure
        regrouping — no sweep — and bit-identical: canonical rects
        sharing an x-range are one slab's y-intervals.
        """
        slabs: list[Slab] = []
        for r in rects:
            if slabs and slabs[-1][0] == r.x0 and slabs[-1][1] == r.x1:
                slabs[-1][2].append((r.y0, r.y1))
            else:
                slabs.append((r.x0, r.x1, [(r.y0, r.y1)]))
        return cls._from_slabs(_merge_slabs(slabs))

    # -- iteration and size ----------------------------------------------
    def slabs(self) -> Iterator[Slab]:
        """Iterate the canonical ``(x0, x1, y-intervals)`` slabs."""
        return iter(self._slabs)

    def rects(self) -> Iterator[Rect]:
        """Iterate the canonical disjoint rectangles."""
        for xa, xb, ys in self._slabs:
            for y0, y1 in ys:
                yield Rect(xa, y0, xb, y1)

    def __iter__(self) -> Iterator[Rect]:
        return self.rects()

    def __len__(self) -> int:
        return sum(len(ys) for _, _, ys in self._slabs)

    def __bool__(self) -> bool:
        return bool(self._slabs)

    @property
    def is_empty(self) -> bool:
        return not self._slabs

    @property
    def area(self) -> int:
        return sum((xb - xa) * (y1 - y0) for xa, xb, ys in self._slabs for y0, y1 in ys)

    @property
    def bbox(self) -> Rect | None:
        if not self._slabs:
            return None
        x0 = self._slabs[0][0]
        x1 = self._slabs[-1][1]
        y0 = min(ys[0][0] for _, _, ys in self._slabs)
        y1 = max(ys[-1][1] for _, _, ys in self._slabs)
        return Rect(x0, y0, x1, y1)

    # -- equality ---------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Region):
            return NotImplemented
        return self._slabs == other._slabs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple((xa, xb, tuple(ys)) for xa, xb, ys in self._slabs))
        return self._hash

    def digest(self) -> str:
        """Stable content hash of the region's point set.

        Hashes the canonical slab decomposition, so any two regions
        describing the same area — however they were constructed — share
        a digest.  This is what keys the incremental tile caches in
        :mod:`repro.parallel`.
        """
        h = hashlib.sha256()
        for xa, xb, ys in self._slabs:
            h.update(struct.pack("<qqq", xa, xb, len(ys)))
            for y0, y1 in ys:
                h.update(struct.pack("<qq", y0, y1))
        return h.hexdigest()

    def __repr__(self) -> str:
        n = len(self)
        bb = self.bbox
        return f"Region({n} rects, bbox={bb.as_tuple() if bb else None})"

    # -- membership ---------------------------------------------------------
    def contains_point(self, p: Point) -> bool:
        """True when ``p`` lies in the closed region."""
        for xa, xb, ys in self._slabs:
            if xa <= p.x <= xb:
                for y0, y1 in ys:
                    if y0 <= p.y <= y1:
                        return True
            if xa > p.x:
                # slabs sorted: a later slab may still touch p.x == xa, so
                # only stop once strictly past
                break
        return False

    # -- boolean algebra -----------------------------------------------------
    def __or__(self, other: "Region") -> "Region":
        return Region._from_slabs(_sweep(self._slabs, other._slabs, lambda a, b: merge_intervals(a + b)))

    def __and__(self, other: "Region") -> "Region":
        a, b = self._slabs, other._slabs
        if not a or not b:
            return Region()
        x0, x1 = max(a[0][0], b[0][0]), min(a[-1][1], b[-1][1])
        if x0 >= x1:
            return Region()
        slabs = _sweep(_window(a, x0, x1), _window(b, x0, x1), intersect_intervals)
        return Region._from_slabs(slabs)

    def __sub__(self, other: "Region") -> "Region":
        a = self._slabs
        if not a:
            return Region()
        b = _window(other._slabs, a[0][0], a[-1][1])
        return Region._from_slabs(_sweep(a, b, subtract_intervals))

    def __xor__(self, other: "Region") -> "Region":
        return Region._from_slabs(_sweep(self._slabs, other._slabs, xor_intervals))

    union = __or__
    intersection = __and__
    difference = __sub__

    def overlaps(self, other: "Region") -> bool:
        """True when interiors intersect.

        A two-pointer sweep over both canonical slab lists that stops at
        the first intersecting (slab, slab) pair — unlike ``self & other``
        it never materializes the intersection, so disjoint-but-close
        regions (the common case in hotspot bridging and fill checks)
        answer in O(slabs scanned) with no allocation.  Both cursors start
        by bisection at the first slab that reaches the other operand's
        x-span, so a small operand against a big one scans only the big
        one's slabs under the small one.
        """
        a, b = self._slabs, other._slabs
        if not a or not b:
            return False
        ia = bisect_right(a, b[0][0], key=_X1)
        ib = bisect_right(b, a[0][0], key=_X1)
        while ia < len(a) and ib < len(b):
            ax0, ax1, ay = a[ia]
            bx0, bx1, by = b[ib]
            if ax1 <= bx0:
                ia += 1
                continue
            if bx1 <= ax0:
                ib += 1
                continue
            i = j = 0
            while i < len(ay) and j < len(by):
                if max(ay[i][0], by[j][0]) < min(ay[i][1], by[j][1]):
                    return True
                if ay[i][1] <= by[j][1]:
                    i += 1
                else:
                    j += 1
            if ax1 <= bx1:
                ia += 1
            else:
                ib += 1
        return False

    def covers(self, other: "Region") -> bool:
        """True when ``other`` is a subset of this region."""
        return (other - self).is_empty

    # -- transforms -------------------------------------------------------
    def translated(self, dx: int, dy: int) -> "Region":
        slabs = [(xa + dx, xb + dx, [(y0 + dy, y1 + dy) for y0, y1 in ys]) for xa, xb, ys in self._slabs]
        return Region._from_slabs(slabs)

    def scaled(self, k: int) -> "Region":
        if k <= 0:
            raise ValueError("scale factor must be positive")
        slabs = [(xa * k, xb * k, [(y0 * k, y1 * k) for y0, y1 in ys]) for xa, xb, ys in self._slabs]
        return Region._from_slabs(slabs)

    # -- morphology -----------------------------------------------------------
    def grown(self, d: int, dy: int | None = None) -> "Region":
        """Minkowski dilation by a ``2d x 2dy`` box (isotropic grow).

        Negative values shrink (erosion).  ``d`` applies horizontally and
        ``dy`` (default ``d``) vertically.  The box is the Minkowski sum
        of a horizontal and a vertical segment, so sizing is separable:
        an x-pass over the slab list (a sliding window of neighbouring
        slabs, unioned or intersected) and then a y-pass within each
        slab.  The x-pass always runs first, so mixed signs mean
        ``grown(d, 0).grown(0, dy)``.
        """
        if dy is None:
            dy = d
        slabs = self._slabs
        if d > 0:
            slabs = _dilate_x(slabs, d)
        elif d < 0:
            slabs = _erode_x(slabs, -d)
        if dy:
            slabs = _size_y(slabs, dy)
        if slabs is self._slabs:
            return self
        return Region._from_slabs(slabs)

    def opened(self, d: int) -> "Region":
        """Morphological opening: erode then dilate.

        Removes any feature narrower than ``2*d`` — the primitive behind
        minimum-width DRC checks.
        """
        return self.grown(-d).grown(d)

    def closed(self, d: int) -> "Region":
        """Morphological closing: dilate then erode.

        Fills any gap narrower than ``2*d`` — the primitive behind
        minimum-spacing DRC checks.
        """
        return self.grown(d).grown(-d)

    # -- structure --------------------------------------------------------
    def components(self) -> list["Region"]:
        """Split into 4-connected components (edge adjacency, not corners)."""
        rect_list = list(self.rects())
        n = len(rect_list)
        if n == 0:
            return []
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def join(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri

        # canonical rects only touch along slab boundaries (vertical edges)
        # or within the same slab never touch; sort by x0 and match edges.
        by_x0: dict[int, list[int]] = {}
        for idx, r in enumerate(rect_list):
            by_x0.setdefault(r.x0, []).append(idx)
        for idx, r in enumerate(rect_list):
            for jdx in by_x0.get(r.x1, []):
                other = rect_list[jdx]
                # shared vertical edge with overlapping y-span (not corner)
                if min(r.y1, other.y1) > max(r.y0, other.y0):
                    join(idx, jdx)
        groups: dict[int, list[Rect]] = {}
        for idx in range(n):
            groups.setdefault(find(idx), []).append(rect_list[idx])
        return [Region(g) for g in groups.values()]

    def holes(self) -> "Region":
        """Interior holes: areas enclosed by the region but not part of it."""
        bb = self.bbox
        if bb is None:
            return Region()
        frame = Rect(bb.x0 - 1, bb.y0 - 1, bb.x1 + 1, bb.y1 + 1)
        outside = Region(frame) - self
        # the component of `outside` touching the frame border is the true
        # outside; everything else is a hole
        return Region(
            [r for c in outside.components() if not _touches_frame(c, frame) for r in c.rects()]
        )

    def clipped(self, window: Rect) -> "Region":
        """Intersection with a rectangular window (fast path)."""
        return self & Region(window)

    def edges(self) -> list[tuple[Point, Point]]:
        """Boundary edges as (start, end) point pairs.

        Edges are oriented so the region interior lies to the *left* of the
        direction of travel.  Built from the canonical slabs: vertical
        boundary pieces come from xor-ing adjacent slabs' interval lists,
        horizontal pieces from each interval's top/bottom within its slab.
        """
        out: list[tuple[Point, Point]] = []
        # horizontal edges: bottom (left-to-right), top (right-to-left)
        for xa, xb, ys in self._slabs:
            for y0, y1 in ys:
                out.append((Point(xa, y0), Point(xb, y0)))  # bottom, interior above
                out.append((Point(xb, y1), Point(xa, y1)))  # top, interior below
        # vertical edges: boundaries where coverage changes between slabs
        boundaries: dict[int, tuple[list[Interval], list[Interval]]] = {}
        prev_end = None
        prev_ys: list[Interval] = []
        for xa, xb, ys in self._slabs:
            if prev_end is not None and prev_end == xa:
                boundaries[xa] = (prev_ys, ys)
            else:
                if prev_end is not None:
                    boundaries[prev_end] = (prev_ys, [])
                boundaries[xa] = ([], ys)
            prev_end, prev_ys = xb, ys
        if prev_end is not None:
            boundaries[prev_end] = (prev_ys, [])
        for x, (left, right) in sorted(boundaries.items()):
            for y0, y1 in subtract_intervals(right, left):
                out.append((Point(x, y1), Point(x, y0)))  # left side, interior right
            for y0, y1 in subtract_intervals(left, right):
                out.append((Point(x, y0), Point(x, y1)))  # right side, interior left
        return out

    def perimeter(self) -> int:
        """Total boundary length."""
        return sum(abs(b.x - a.x) + abs(b.y - a.y) for a, b in self.edges())

    def snapped(self, grid: int) -> "Region":
        """Snap every rectangle outward to the given grid."""
        if grid <= 1:
            return self
        snapped = [
            Rect(
                (r.x0 // grid) * grid,
                (r.y0 // grid) * grid,
                -(-r.x1 // grid) * grid,
                -(-r.y1 // grid) * grid,
            )
            for r in self.rects()
        ]
        return Region(snapped)


def _touches_frame(component: Region, frame: Rect) -> bool:
    bb = component.bbox
    if bb is None:
        return False
    return (
        bb.x0 <= frame.x0
        or bb.y0 <= frame.y0
        or bb.x1 >= frame.x1
        or bb.y1 >= frame.y1
    )
