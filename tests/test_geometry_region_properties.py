"""Property-based tests: Region boolean algebra laws, morphology
invariants, canonical-form uniqueness."""

from hypothesis import given, settings, strategies as st

import repro.geometry.region as region_mod
from repro.geometry import Rect, Region

rect_strategy = st.tuples(
    st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 30), st.integers(1, 30)
).map(lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3]))

region_strategy = st.lists(rect_strategy, max_size=6).map(Region)


@given(region_strategy, region_strategy)
def test_union_commutative(a, b):
    assert (a | b) == (b | a)


@given(region_strategy, region_strategy)
def test_intersection_commutative(a, b):
    assert (a & b) == (b & a)


@given(region_strategy, region_strategy, region_strategy)
@settings(max_examples=50)
def test_union_associative(a, b, c):
    assert ((a | b) | c) == (a | (b | c))


@given(region_strategy, region_strategy, region_strategy)
@settings(max_examples=50)
def test_intersection_distributes_over_union(a, b, c):
    assert (a & (b | c)) == ((a & b) | (a & c))


@given(region_strategy)
def test_self_laws(a):
    assert (a | a) == a
    assert (a & a) == a
    assert (a - a).is_empty
    assert (a ^ a).is_empty


@given(region_strategy, region_strategy)
def test_difference_disjoint_from_subtrahend(a, b):
    assert ((a - b) & b).is_empty


@given(region_strategy, region_strategy)
def test_inclusion_exclusion_area(a, b):
    assert (a | b).area == a.area + b.area - (a & b).area


@given(region_strategy, region_strategy)
def test_xor_is_union_minus_intersection(a, b):
    assert (a ^ b) == ((a | b) - (a & b))


@given(region_strategy, region_strategy)
def test_subtract_then_add_back(a, b):
    assert ((a - b) | (a & b)) == a


@given(region_strategy)
def test_canonical_reconstruction(a):
    """Rebuilding a region from its own canonical rects is the identity."""
    assert Region(list(a.rects())) == a


@given(region_strategy)
def test_canonical_rects_disjoint(a):
    rects = list(a.rects())
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            assert not rects[i].overlaps(rects[j])


@given(region_strategy, st.integers(1, 10))
def test_grow_shrink_roundtrip_contains(a, d):
    """Opening is anti-extensive: open(a) is a subset of a."""
    opened = a.grown(-d).grown(d)
    assert a.covers(opened)


@given(region_strategy, st.integers(1, 10))
def test_close_extensive(a, d):
    """Closing is extensive: a is a subset of close(a)."""
    assert a.closed(d).covers(a)


@given(region_strategy, st.integers(1, 8))
def test_grow_monotone_area(a, d):
    assert a.grown(d).area >= a.area


@given(region_strategy, st.integers(-20, 20), st.integers(-20, 20))
def test_translation_preserves_area_and_count(a, dx, dy):
    moved = a.translated(dx, dy)
    assert moved.area == a.area
    assert len(moved) == len(a)
    assert moved.translated(-dx, -dy) == a


@given(region_strategy, st.integers(2, 5))
def test_scaling_area(a, k):
    assert a.scaled(k).area == a.area * k * k


@given(region_strategy)
def test_components_partition(a):
    comps = a.components()
    assert sum(c.area for c in comps) == a.area
    merged = Region()
    for c in comps:
        merged = merged | c
    assert merged == a


@given(region_strategy)
def test_bbox_contains_region(a):
    if a.bbox is not None:
        assert Region(a.bbox).covers(a)


# -- pixel oracle ------------------------------------------------------------
# A region on the integer lattice is a set of unit cells, so sizing and the
# windowed booleans can be checked against brute-force set arithmetic.

cell_sets = st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60)

small_rects = st.tuples(
    st.integers(0, 20), st.integers(0, 20), st.integers(1, 8), st.integers(1, 8)
).map(lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3]))


def _cells_of(region):
    return {
        (x, y)
        for r in region.rects()
        for x in range(r.x0, r.x1)
        for y in range(r.y0, r.y1)
    }


def _region_of(cells):
    return Region([Rect(x, y, x + 1, y + 1) for x, y in cells])


lattice_regions = st.one_of(
    cell_sets.map(_region_of), st.lists(small_rects, max_size=6).map(Region)
)


def _size_axis(cells, k, axis):
    """Dilate (k > 0) or erode (k < 0) a cell set along one axis by |k|."""

    def shift(c, o):
        return (c[0] + o, c[1]) if axis == 0 else (c[0], c[1] + o)

    offsets = range(-abs(k), abs(k) + 1)
    if k >= 0:
        return {shift(c, o) for c in cells for o in offsets}
    return {c for c in cells if all(shift(c, o) in cells for o in offsets)}


def _sized(cells, d, dy):
    return _size_axis(_size_axis(cells, d, 0), dy, 1)


@given(lattice_regions, st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=300)
def test_grown_matches_pixel_oracle(a, d, dy):
    """Anisotropic and mixed-sign sizing: the x-pass runs first."""
    assert a.grown(d, dy) == _region_of(_sized(_cells_of(a), d, dy))


@given(lattice_regions, st.integers(-4, 4))
def test_isotropic_grown_matches_pixel_oracle(a, d):
    assert a.grown(d) == _region_of(_sized(_cells_of(a), d, d))


@given(lattice_regions, st.integers(1, 4))
def test_opened_closed_match_pixel_oracle(a, d):
    cells = _cells_of(a)
    assert a.opened(d) == _region_of(_sized(_sized(cells, -d, -d), d, d))
    assert a.closed(d) == _region_of(_sized(_sized(cells, d, d), -d, -d))


def _placed(a_cells, b_cells, relation, flip):
    """Move ``b_cells`` into the given x-relation with ``a_cells``."""
    if relation == "empty" or not a_cells or not b_cells:
        return set()
    ax = [x for x, _ in a_cells]
    bx = [x for x, _ in b_cells]
    if relation == "nested":
        inside = {(x, y) for x, y in b_cells if min(ax) <= x <= max(ax)}
        return inside & a_cells if flip else inside
    gap = 1 if relation == "disjoint" else 0
    if flip:  # to the left of a
        dx = min(ax) - gap - max(bx) - 1
    else:  # to the right of a
        dx = max(ax) + 1 + gap - min(bx)
    return {(x + dx, y) for x, y in b_cells}


@given(
    cell_sets,
    cell_sets,
    st.sampled_from(["disjoint", "touching", "nested", "empty"]),
    st.booleans(),
)
@settings(max_examples=300)
def test_windowed_booleans_match_pixel_oracle(a_cells, b_cells, relation, flip):
    b_cells = _placed(a_cells, b_cells, relation, flip)
    for p, q in ((a_cells, b_cells), (b_cells, a_cells)):
        rp, rq = _region_of(p), _region_of(q)
        assert rp & rq == _region_of(p & q)
        assert rp - rq == _region_of(p - q)
        assert rp.overlaps(rq) == bool(p & q)
        assert rp.covers(rq) == (q <= p)


# -- cost scales with the overlap, not the layer -----------------------------


class _CountingSlabs(list):
    """A slab list that counts element reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def _counting(monkeypatch, name):
    """Count calls to a module-level interval op the region kernel uses."""
    calls = [0]
    inner = getattr(region_mod, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(region_mod, name, counted)
    return calls


# 10,000 slabs: x-separated unit-wide bars of alternating height
BIG = Region([Rect(2 * i, 0, 2 * i + 1, 1 + i % 3) for i in range(10_000)])


def test_big_layer_is_big():
    assert sum(1 for _ in BIG.slabs()) == 10_000


def test_covers_small_is_constant_work(monkeypatch):
    calls = _counting(monkeypatch, "subtract_intervals")
    assert BIG.covers(Region(Rect(10_000, 0, 10_001, 1)))
    assert not BIG.covers(Region(Rect(10_000, 0, 10_003, 1)))
    assert calls[0] <= 10


def test_intersection_and_clip_of_small_is_constant_work(monkeypatch):
    calls = _counting(monkeypatch, "intersect_intervals")
    small = Region(Rect(10_000, 0, 10_003, 2))
    assert (BIG & small).area == 3
    assert (small & BIG).area == 3
    assert BIG.clipped(Rect(10_000, 0, 10_003, 2)).area == 3
    assert calls[0] <= 20


def test_overlaps_small_reads_constant_slabs():
    slabs = _CountingSlabs(BIG.slabs())
    big = Region._from_slabs(slabs)
    assert big.overlaps(Region(Rect(10_000, 0, 10_003, 1)))
    assert not big.overlaps(Region(Rect(10_001, 0, 10_002, 5)))
    assert not big.overlaps(Region(Rect(30_000, 0, 30_001, 1)))
    assert Region(Rect(10_000, 0, 10_003, 1)).overlaps(big)
    assert slabs.reads <= 200
