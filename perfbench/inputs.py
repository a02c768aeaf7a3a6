"""Seeded inputs: the logic blocks and the edit stream.

Everything here is a pure function of the seed and the size, so a run
can be repeated exactly.  The program under test only ever sees the
files and parameters built here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro import LogicBlockSpec, generate_logic_block
from repro.geometry import GridIndex, Rect, Region
from repro.layout import Layout
from repro.litho import LithoModel, ProcessWindow
from repro.parallel import Tile, tile_grid
from repro.tech.technology import Technology

# The tile overlap every scan in this benchmark runs with (the
# scan_full_chip default).
OVERLAP_NM = 200


@dataclass(frozen=True)
class Size:
    """How big one workload's inputs are."""

    name: str
    # chip-signoff: logic block rows x row width, scan/DRC tile edge
    signoff_rows: int
    signoff_width_nm: int
    signoff_tile_nm: int
    violations: int
    # edit-churn: its own block and tile edge, and the fewest requests
    # a run makes (p90 needs 10 samples beyond it)
    churn_rows: int
    churn_width_nm: int
    churn_tile_nm: int
    churn_min_requests: int
    # lib-matrix
    matrix_nodes: tuple[int, ...]
    matrix_cells: tuple[str, ...] | None
    matrix_corners: int


SIZES = {
    "full": Size(
        "full",
        signoff_rows=4,
        signoff_width_nm=16000,
        signoff_tile_nm=2000,
        violations=8,
        churn_rows=4,
        churn_width_nm=6000,
        churn_tile_nm=1000,
        churn_min_requests=100,
        matrix_nodes=(65, 45, 32),
        matrix_cells=None,
        matrix_corners=2,
    ),
    # a few seconds per workload, for the smoke test
    "tiny": Size(
        "tiny",
        signoff_rows=2,
        signoff_width_nm=4000,
        signoff_tile_nm=2000,
        violations=2,
        churn_rows=2,
        churn_width_nm=4000,
        churn_tile_nm=1000,
        churn_min_requests=4,
        matrix_nodes=(45,),
        matrix_cells=("INV_X1", "INV_X2", "NAND2_X1"),
        matrix_corners=1,
    ),
}


def logic_block(tech: Technology, rows: int, width_nm: int, seed: int) -> Layout:
    spec = LogicBlockSpec(rows=rows, row_width_nm=width_nm, net_count=8, seed=seed)
    return generate_logic_block(tech, spec).layout


def add_violations(tech: Technology, layout: Layout, count: int, seed: int) -> list[Rect]:
    """Add ``count`` isolated sub-minimum-width M1 slivers.

    The generated block is DRC-clean; each sliver sits at least twice the
    minimum spacing away from all other M1, so it breaks the minimum
    width rule whatever else is nearby.  Returns the slivers added.
    """
    rng = random.Random(f"violations-{seed}")
    top = layout.top_cells()[0]
    m1 = tech.layers.metal1
    index: GridIndex[Rect] = GridIndex(cell_size=1024)
    for r in top.region(m1).rects():
        index.insert(r, r)
    bbox = top.bbox
    width = tech.metal_width * 2 // 3
    length = 6 * tech.metal_width
    clearance = 2 * tech.metal_space
    added: list[Rect] = []
    for _ in range(count * 400):
        if len(added) == count:
            break
        x = rng.randrange(bbox.x0 + clearance, bbox.x1 - clearance - length, 5)
        y = rng.randrange(bbox.y0 + clearance, bbox.y1 - clearance - width, 5)
        sliver = Rect(x, y, x + length, y + width)
        if index.query(sliver.expanded(clearance)):
            continue
        top.add_rect(m1, sliver)
        index.insert(sliver, sliver)
        added.append(sliver)
    return added


def scan_reach_nm(tech: Technology) -> int:
    """How far outside its core a scan tile's result can see: the tile
    overlap plus the widest optical halo, rounded up to the pixel grid."""
    model = LithoModel(tech.litho)
    grid = model.settings.grid_nm
    halo = max(model.halo_nm(c.defocus_nm) for c in ProcessWindow().corners())
    return OVERLAP_NM + -(-halo // grid) * grid


@dataclass(frozen=True)
class Edit:
    tile: int
    rect: Rect


class EditStream:
    """Seeded, accumulating one-shape edits for the churn workload.

    Each edit adds one M1 rectangle inside one scan tile's core, at least
    the scan reach away from the core's edges, so it changes that tile's
    result and no other tile's.  No (tile, shape) pair repeats within a
    stream, and an edit is only issued when it changes the layout (a
    rectangle already covered by metal is redrawn elsewhere).
    """

    LENGTHS = range(90, 196, 15)
    WIDTHS = range(45, 91, 5)

    def __init__(self, tech: Technology, layout: Layout, tile_nm: int, seed: int):
        self.rng = random.Random(f"edits-{seed}")
        self.layer = tech.layers.metal1
        self.top = layout.top_cells()[0]
        m1 = self.top.region(self.layer)
        reach = scan_reach_nm(tech)
        longest = max(self.LENGTHS)
        self.tiles: list[Tile] = []
        self.safe: dict[int, Rect] = {}
        for tile in tile_grid(m1.bbox, tile_nm, OVERLAP_NM):
            c = tile.core
            safe = Rect(c.x0 + reach, c.y0 + reach, c.x1 - reach, c.y1 - reach)
            if safe.width > longest and safe.height > longest:
                self.tiles.append(tile)
                self.safe[tile.index] = safe
        if not self.tiles:
            raise ValueError(f"no tile of {tile_nm} nm has room for an edit")
        self.index: GridIndex[Rect] = GridIndex(cell_size=512)
        for r in m1.rects():
            self.index.insert(r, r)
        self.seen: set[Edit] = set()
        self._round: list[Tile] = []

    def _covered(self, rect: Rect) -> bool:
        near = self.index.query(rect)
        return near != [] and (Region([rect]) - Region(near)).is_empty

    def _next_tile(self) -> Tile:
        """Tiles in seeded rounds: every editable tile once per round, so
        each run spreads its edits evenly over the block."""
        if not self._round:
            self._round = list(self.tiles)
            self.rng.shuffle(self._round)
        return self._round.pop()

    def next(self) -> Edit:
        """Draw the next edit and apply it to the layout."""
        for _ in range(len(self.tiles)):
            edit = self._draw(self._next_tile())
            if edit is not None:
                self.seen.add(edit)
                self.top.add_rect(self.layer, edit.rect)
                self.index.insert(edit.rect, edit.rect)
                return edit
        raise RuntimeError("no tile has room left for a new edit")

    def _draw(self, tile: Tile) -> Edit | None:
        """A new edit in ``tile`` that changes the layout, if one is found."""
        safe = self.safe[tile.index]
        for _ in range(200):
            length = self.rng.choice(self.LENGTHS)
            width = self.rng.choice(self.WIDTHS)
            w, h = (length, width) if self.rng.random() < 0.5 else (width, length)
            x = self.rng.randrange(safe.x0, safe.x1 - w, 5)
            y = self.rng.randrange(safe.y0, safe.y1 - h, 5)
            edit = Edit(tile.index, Rect(x, y, x + w, y + h))
            if edit not in self.seen and not self._covered(edit.rect):
                return edit
        return None


def request_kinds(seed: int) -> Iterator[str]:
    """The churn's fixed 3:1 scan:DRC mix: one DRC request at a seeded
    place in every group of four."""
    rng = random.Random(f"mix-{seed}")
    while True:
        group = ["scan"] * 4
        group[rng.randrange(4)] = "drc"
        yield from group
